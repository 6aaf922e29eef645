package jsonw

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// marshal is the oracle: encoding/json's bytes for v.
func marshal(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestStringMatchesEncodingJSON(t *testing.T) {
	cases := []string{"", "plain", `"quoted" \back\ /slash/`, "<a href='x'>&amp;</a>",
		"\b\f\n\r\t\x00\x01\x1f\x7f", "\u2028\u2029", "\u00e9\u65e5\u672c\U0001F600", "\xff\xfe", "a\xc3(b", "\xed\xa0\x80", "\xe2\x82"}
	for c := 0; c < 256; c++ {
		cases = append(cases, string([]byte{byte(c)}), "x"+string([]byte{byte(c)})+"y")
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		b := make([]byte, rng.Intn(12))
		for j := range b {
			b[j] = []byte{'a', '<', '&', 0, 0x1f, 0x7f, 0x80, 0xc3, 0xa9, 0xe2, 0x80, 0xa8, 0xff, '"', '\\'}[rng.Intn(15)]
		}
		cases = append(cases, string(b))
	}
	for _, s := range cases {
		if got, want := string(String([]byte("pre"), s)), "pre"+marshal(t, s); got != want {
			t.Fatalf("String(%q) = %s, want %s", s, got, want)
		}
	}
}

func TestFloatMatchesEncodingJSON(t *testing.T) {
	cases := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, 1e-6, 9.99999e-7, 1e-7, 1.5e-10,
		1e20, 1e21, 9.99999999999999e20, 1.2345e25, -1e21, -1e-7, math.MaxFloat64, math.SmallestNonzeroFloat64, 123456789.125}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		cases = append(cases, math.Float64frombits(rng.Uint64()))
	}
	for _, f := range cases {
		if !Finite(f) {
			if _, err := json.Marshal(f); err == nil {
				t.Fatalf("encoding/json accepted %v, which Finite refuses", f)
			}
			continue
		}
		if got, want := string(Float(nil, f)), marshal(t, f); got != want {
			t.Fatalf("Float(%v) = %s, want %s", f, got, want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if Finite(f) {
			t.Fatalf("Finite(%v) = true", f)
		}
	}
}

func TestIntsAndIntMapMatchEncodingJSON(t *testing.T) {
	for _, vs := range [][]int64{nil, {}, {0}, {math.MinInt64, -1, math.MaxInt64}} {
		if got, want := string(Ints(nil, vs)), marshal(t, vs); got != want {
			t.Fatalf("Ints(%v) = %s, want %s", vs, got, want)
		}
	}
	big := map[string]int64{}
	for i := 0; i < 3*sortedKeys; i++ {
		big[fmt.Sprintf("k%02d<%d>", 97-i, i)] = int64(i) - 20
	}
	for _, m := range []map[string]int64{nil, {}, {"b": 2, "a": 1, "B": 3, "\u00e9": 4, "a\u2028": 5, "<": 6}, big} {
		if got, want := string(IntMap(nil, m)), marshal(t, m); got != want {
			t.Fatalf("IntMap(%v) = %s, want %s", m, got, want)
		}
	}
}

func TestKeyCommas(t *testing.T) {
	b := append(Key([]byte("{"), "a"), '1')
	b = append(Key(append(Key(b, "b"), '{'), "c"), "null}}"...)
	if got := string(b); got != `{"a":1,"b":{"c":null}}` {
		t.Fatalf("got %s", got)
	}
}
