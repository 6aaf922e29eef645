// Package jsonw holds the append-style helpers behind the hot-path JSON
// writers of engine.Result and sweep.Point. Each helper appends exactly
// the bytes encoding/json writes for the same Go value (HTML-safe string
// escaping, ES6 float formatting, map keys in sorted order), so a writer
// built from them is a byte-identical, allocation-free stand-in for
// json.Marshal on a fixed struct shape.
package jsonw

import (
	"math"
	"slices"
	"strconv"
	"unicode/utf8"
)

const hex = "0123456789abcdef"

// safeASCII[c] reports whether String writes the ASCII byte c as it is.
var safeASCII = func() (safe [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		safe[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return safe
}()

// Key appends an object key: a comma unless the key is the object's first,
// then "key":. The key must be plain ASCII that needs no escaping, as
// struct field names are. The first-key test reads the byte before it,
// which is the object's '{' exactly when nothing was written yet, because
// every JSON value ends in a different byte.
func Key(b []byte, key string) []byte {
	if len(b) > 0 && b[len(b)-1] != '{' {
		b = append(b, ',')
	}
	b = append(b, '"')
	b = append(b, key...)
	return append(b, '"', ':')
}

// String appends s as a JSON string, escaped as encoding/json escapes it:
// `"` and `\` by backslash; \b \f \n \r \t by name; other control bytes
// and the HTML-sensitive <, > and & as \u00XX; U+2028 and U+2029 as \u202X;
// and each byte of invalid UTF-8 as \ufffd.
func String(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if safeASCII[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// Int appends v in decimal.
func Int(b []byte, v int64) []byte { return strconv.AppendInt(b, v, 10) }

// Bool appends true or false.
func Bool(b []byte, v bool) []byte { return strconv.AppendBool(b, v) }

// Finite reports whether f has a JSON form: NaN and the infinities have
// none, and encoding/json refuses them with an error.
func Finite(f float64) bool { return !math.IsInf(f, 0) && !math.IsNaN(f) }

// Float appends a finite f as encoding/json writes a float64: the shortest
// decimal that round-trips, in exponent form below 1e-6 and from 1e21 on,
// with a one-digit negative exponent written e-7 rather than e-07.
func Float(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// Ints appends vs as a JSON array; a nil slice is null.
func Ints(b []byte, vs []int64) []byte {
	if vs == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		b = Int(b, v)
	}
	return append(b, ']')
}

// sortedKeys is how many map keys IntMap sorts in a stack array; a larger
// map sorts a heap slice.
const sortedKeys = 16

// IntMap appends m as a JSON object with its keys in ascending byte order,
// as encoding/json orders string keys; a nil map is null.
func IntMap(b []byte, m map[string]int64) []byte {
	if m == nil {
		return append(b, "null"...)
	}
	var stack [sortedKeys]string
	keys := stack[:0]
	if len(m) > sortedKeys {
		keys = make([]string, 0, len(m))
	}
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	b = append(b, '{')
	for i, k := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = String(b, k)
		b = append(b, ':')
		b = Int(b, m[k])
	}
	return append(b, '}')
}
