package telemetry

import (
	"encoding/binary"
	"encoding/hex"
	"math/rand/v2"
	"strings"
)

// Traceparent is the HTTP header that carries trace context across
// processes, in the W3C Trace Context shape: 00-<trace-id>-<span-id>-01.
const Traceparent = "traceparent"

// SpanContext identifies one span within one trace: a 32-hex-char trace ID
// shared by every span of the request, fleet-wide, and a 16-hex-char span
// ID unique to this span. The zero value means "no trace" and encodes to
// an empty header.
type SpanContext struct {
	TraceID string
	SpanID  string
}

// Valid reports whether the context carries usable identifiers.
func (sc SpanContext) Valid() bool {
	return len(sc.TraceID) == 32 && len(sc.SpanID) == 16
}

// Traceparent encodes the context as a W3C traceparent header value, or ""
// for an invalid context so callers can skip the header unconditionally.
func (sc SpanContext) Traceparent() string {
	if !sc.Valid() {
		return ""
	}
	return "00-" + sc.TraceID + "-" + sc.SpanID + "-01"
}

// ParseTraceparent decodes a traceparent header value. It accepts any
// version byte (per spec, future versions stay parseable as version 00)
// and rejects malformed or all-zero identifiers.
func ParseTraceparent(h string) (SpanContext, bool) {
	parts := strings.Split(strings.TrimSpace(h), "-")
	if len(parts) < 4 || len(parts[0]) != 2 || len(parts[1]) != 32 || len(parts[2]) != 16 {
		return SpanContext{}, false
	}
	if !isHex(parts[1]) || !isHex(parts[2]) {
		return SpanContext{}, false
	}
	if parts[1] == strings.Repeat("0", 32) || parts[2] == strings.Repeat("0", 16) {
		return SpanContext{}, false
	}
	return SpanContext{TraceID: parts[1], SpanID: parts[2]}, true
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// NewSpanContext mints a fresh trace with a fresh root span ID.
func NewSpanContext() SpanContext {
	return SpanContext{TraceID: newTraceID(), SpanID: newSpanID()}
}

// Trace and span IDs only need uniqueness, not unpredictability —
// math/rand/v2's per-goroutine ChaCha8 source is cheap and never errors,
// unlike crypto/rand. Each is hex-encoded on the stack, so minting one
// allocates only its string.
func newTraceID() string {
	var b [16]byte
	binary.BigEndian.PutUint64(b[:8], rand.Uint64())
	binary.BigEndian.PutUint64(b[8:], rand.Uint64())
	if b == ([16]byte{}) {
		b[15] = 1
	}
	var h [32]byte
	hex.Encode(h[:], b[:])
	return string(h[:])
}

func newSpanID() string {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], rand.Uint64())
	if b == ([8]byte{}) {
		b[7] = 1
	}
	var h [16]byte
	hex.Encode(h[:], b[:])
	return string(h[:])
}
