package sweep

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"kiter/internal/engine"
)

// encodeLine is the oracle: the bytes json.Encoder writes for v.
func encodeLine(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// checkPointJSON requires p.AppendJSON to write exactly the encoding/json
// line for p, and Result.AppendJSON exactly json.Marshal of the result,
// both after a prefix they must leave alone; a value encoding/json refuses
// must be refused too, with nothing appended.
func checkPointJSON(t *testing.T, p *Point) {
	t.Helper()
	prefix := []byte("prefix")
	want, werr := encodeLine(p)
	got, gerr := p.AppendJSON(bytes.Clone(prefix))
	if (werr != nil) != (gerr != nil) {
		t.Fatalf("encoding/json error %v, AppendJSON error %v", werr, gerr)
	}
	if !bytes.HasPrefix(got, prefix) {
		t.Fatalf("AppendJSON overwrote its prefix: %q", got)
	}
	if werr != nil {
		if werr.Error() != gerr.Error() || len(got) != len(prefix) {
			t.Fatalf("refused value: error %q, want %q; appended %q", gerr, werr, got[len(prefix):])
		}
		return
	}
	if got := got[len(prefix):]; !bytes.Equal(got, want) {
		t.Fatalf("Point.AppendJSON\n got %s\nwant %s", got, want)
	}
	wantRes, _ := json.Marshal(p.Result)
	gotRes, err := p.Result.AppendJSON(bytes.Clone(prefix))
	if err != nil || !bytes.Equal(gotRes[len(prefix):], wantRes) {
		t.Fatalf("Result.AppendJSON (%v)\n got %s\nwant %s", err, gotRes[len(prefix):], wantRes)
	}
}

// fuzzPoint builds a Point from fuzz inputs: mask picks which sections,
// optional fields and map forms are present; the strings, floats and
// integers fill every field of their kind.
func fuzzPoint(s1, s2 string, f1, f2 float64, i1, i2 int64, mask uint16) *Point {
	bit := func(n uint) bool { return mask&(1<<n) != 0 }
	ints := func(n uint) []int64 {
		if !bit(n) {
			return nil
		}
		if bit(n + 1) {
			return []int64{} // empty, not nil: omitted all the same
		}
		return []int64{i1, i2, -i1}
	}
	p := &Point{Scenario: int(i1), Error: s2}
	switch {
	case bit(0) && bit(1):
		p.Params = map[string]int64{}
	case bit(0):
		p.Params = map[string]int64{s1: i1, s2: i2, "window": i1 ^ i2}
	}
	if !bit(2) {
		return p
	}
	r := &engine.Result{Graph: s1, Fingerprint: s2, CacheHit: bit(3), Deduped: bit(4), Peer: s1, ElapsedMS: f2}
	p.Result = r
	if bit(5) {
		r.Throughput = &engine.ThroughputResult{Period: s1, Throughput: s2, Float: f1, Optimal: bit(6),
			Method: engine.Method(s1), K: ints(7), Iterations: int(i2), Error: s2}
	}
	if bit(9) {
		r.Schedule = &engine.ScheduleResult{K: ints(10), Period: s2, Latency: s1, Error: s1}
	}
	if bit(12) {
		r.Sizing = &engine.SizingResult{Capacities: ints(13), Period: s1, Error: s2}
	}
	if bit(15) {
		r.Symbolic = &engine.SymbolicResult{Period: s2, Throughput: s1, Float: f1, TransientTime: i1,
			CycleTime: i2, Events: i1 + i2, StatesStored: int(i2), Error: s1}
	}
	return p
}

// FuzzResultJSON is the byte-identity gate of the append writers: a Point
// built from fuzz inputs — and through it a Result and every section —
// must encode exactly as encoding/json encodes it. The seed corpus in
// testdata/fuzz/FuzzResultJSON covers the escapes (<>&, control bytes,
// invalid UTF-8, U+2028), the float format switches at 1e-6 and 1e21, nil
// sections, an empty K and nil against empty params.
func FuzzResultJSON(f *testing.F) {
	f.Add("1/3", "deadlock", 0.3333333333333333, 1.25, int64(7), int64(2), uint16(0xffff))
	f.Fuzz(func(t *testing.T, s1, s2 string, f1, f2 float64, i1, i2 int64, mask uint16) {
		checkPointJSON(t, fuzzPoint(s1, s2, f1, f2, i1, i2, mask))
	})
}

// TestResultJSONNonFinite: a float with no JSON form is refused as
// encoding/json refuses it, wherever it sits.
func TestResultJSONNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, mask := range []uint16{1<<2 | 1<<5, 1<<2 | 1<<15} {
			checkPointJSON(t, fuzzPoint("a", "b", f, 1, 1, 2, mask))
		}
		checkPointJSON(t, fuzzPoint("a", "b", 1, f, 1, 2, 1<<2))
	}
}

// fillExported sets every exported field reachable from v to a non-zero
// value — pointers allocated, slices and maps given two elements — so
// that no omitempty field is left out of encoding/json's output.
func fillExported(t *testing.T, v reflect.Value, n *int64) {
	*n++
	switch v.Kind() {
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillExported(t, v.Elem(), n)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fillExported(t, v.Field(i), n)
			}
		}
	case reflect.String:
		v.SetString("s<" + v.Type().Name() + ">\u2028" + string(rune('a'+*n%26)))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(*n * 1_000_003)
	case reflect.Float64:
		v.SetFloat(float64(*n) / 7)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		fillExported(t, v.Index(0), n)
		fillExported(t, v.Index(1), n)
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		for i := 0; i < 2; i++ {
			k := reflect.New(v.Type().Key()).Elem()
			e := reflect.New(v.Type().Elem()).Elem()
			fillExported(t, k, n)
			fillExported(t, e, n)
			v.SetMapIndex(k, e)
		}
	default:
		t.Fatalf("fillExported: no filler for kind %s; teach it and the writers the new field", v.Kind())
	}
}

// TestResultJSONCoversEveryField fills every exported field of Point,
// Result and each section, so a field added later without writer support
// fails here rather than vanishing from the wire.
func TestResultJSONCoversEveryField(t *testing.T) {
	var n int64
	var p Point
	fillExported(t, reflect.ValueOf(&p).Elem(), &n)
	if p.Result.Throughput == nil || p.Result.Symbolic == nil || len(p.Params) != 2 {
		t.Fatalf("fill left gaps: %+v", p)
	}
	checkPointJSON(t, &p)
}

// TestAppendJSONAllocations pins the writers at zero allocations into a
// buffer with room to spare.
func TestAppendJSONAllocations(t *testing.T) {
	var n int64
	var p Point
	fillExported(t, reflect.ValueOf(&p).Elem(), &n)
	buf := make([]byte, 0, 4096)
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := p.AppendJSON(buf[:0]); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Point.AppendJSON allocates %.0f objects, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := p.Result.AppendJSON(buf[:0]); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Result.AppendJSON allocates %.0f objects, want 0", allocs)
	}
}
