package sdf3x_test

import (
	"bytes"
	"strings"
	"testing"

	"kiter/internal/csdf"
	"kiter/internal/gen"
	"kiter/internal/sdf3x"
)

// FuzzReadJSON holds the single-pass decoder to the reflection decoder it
// replaced: both accept or both reject every input, and an accepted graph
// is the same graph, names included. The seed corpus in
// testdata/fuzz/FuzzReadJSON holds WriteJSON renders of the gen fixtures,
// the video-pipeline sweep base and one input per parity rule (key case
// folding, repeated keys, nulls, integer-only numbers, escapes and invalid
// UTF-8, trailing data).
func FuzzReadJSON(f *testing.F) {
	f.Add([]byte(`{"name":"x","tasks":[{"name":"a","durations":[1]}],"buffers":[{"src":"a","dst":"a","in":[1],"out":[1],"initial":1}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := sdf3x.ReadJSON(bytes.NewReader(data))
		want, werr := sdf3x.ReadJSONReflect(data)
		if (err == nil) != (werr == nil) {
			t.Fatalf("accept/reject differs on %q:\n single-pass: %v\n reflection:  %v", data, err, werr)
		}
		if err == nil {
			sameGraph(t, got, want)
		}
	})
}

// sameGraph extends graphsEqual with the names and the fingerprint.
func sameGraph(t *testing.T, got, want *csdf.Graph) {
	t.Helper()
	graphsEqual(t, got, want)
	if got.Name != want.Name {
		t.Fatalf("graph name %q, want %q", got.Name, want.Name)
	}
	for i := range got.Tasks() {
		name := got.Task(csdf.TaskID(i)).Name
		if w := want.Task(csdf.TaskID(i)).Name; name != w {
			t.Fatalf("task %d name %q, want %q", i, name, w)
		}
		gid, gok := got.TaskByName(name)
		wid, wok := want.TaskByName(name)
		if gid != wid || gok != wok {
			t.Fatalf("TaskByName(%q) = %d, %v, want %d, %v", name, gid, gok, wid, wok)
		}
	}
	for i := range got.Buffers() {
		if a, b := got.Buffer(csdf.BufferID(i)), want.Buffer(csdf.BufferID(i)); a.Name != b.Name || len(a.In) != len(b.In) || len(a.Out) != len(b.Out) {
			t.Fatalf("buffer %d: %+v, want %+v", i, a, b)
		}
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatal("fingerprints differ")
	}
}

// TestReadJSONAllocations pins the decoder's allocations on BlackScholes
// (41 tasks, 41 buffers, 4.3 KB compact): the input is read into the
// pooled decoder's buffer, so only 83 name strings, the slab, the task and
// buffer arrays and the graph remain — 88 in all. The reflection decoder
// took about 515. The race detector drops pooled scratch at random, which
// adds up to about ten.
func TestReadJSONAllocations(t *testing.T) {
	g, err := gen.Industrial(gen.IndustrialSpecs()[0])
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sdf3x.WriteCompactJSON(&buf, g); err != nil {
		t.Fatal(err)
	}
	body := buf.Bytes()
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := sdf3x.ReadJSON(bytes.NewReader(body)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 106 {
		t.Errorf("ReadJSON allocates %.0f objects on a %d-task, %d-buffer graph, want ≤ 106",
			allocs, g.NumTasks(), g.NumBuffers())
	}
}

// FuzzGraphSpan holds ReadBody's GraphJSON to its promise: for every body
// ReadRequest accepts, {"graph":GraphJSON} decodes to the same graph,
// names and fingerprint included, so a forward may send the client's
// bytes instead of encoding the graph again. A nil GraphJSON is allowed
// only for a bare graph that would pass the nesting limit inside an
// envelope. The seeds hold bare graphs, repeated and case-folded "graph"
// keys, whitespace around every token, string escapes and unknown keys.
func FuzzGraphSpan(f *testing.F) {
	var buf bytes.Buffer
	if err := sdf3x.WriteCompactJSON(&buf, gen.Figure2()); err != nil {
		f.Fatal(err)
	}
	fig2 := buf.String()
	const one = `{"name":"x","tasks":[{"name":"a","durations":[1]}],"buffers":[{"src":"a","dst":"a","in":[1],"out":[1],"initial":1}]}`
	for _, seed := range []string{
		fig2,
		" \n\t" + fig2 + "\r\n ",
		`null`,
		`{"graph":null}`,
		`{"graph":` + one + `,"method":"kiter"}`,
		`{ "graph" : ` + fig2 + ` , "analyses" : [ "throughput" ] }`,
		`{"graph":` + one + `,"analyses":["throughput"],"GRAPH":` + fig2 + `}`,
		`{"graph":` + one + `}`,
		`{"graph":{"name":"vé\"x","tasks":[{"name":"a\\b","durations":[1]}],"buffers":[{"src":"a\\b","dst":"a\\b","in":[1],"out":[1],"initial":1}],"extra":{"graph":[1]}}}`,
		`{"comment":{"graph":1},"analyses":[7],"method":3,"tasks":[{"name":"a","durations":[1]}],"TASKS":[{"name":"b","durations":[2]}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, _, err := readRequest(data)
		if err != nil {
			return
		}
		b, err := sdf3x.ReadBody(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			t.Fatalf("ReadBody rejects what ReadRequest accepts: %v", err)
		}
		span := bytes.Clone(b.GraphJSON)
		b.Release()
		if span == nil {
			if _, _, err := readRequest(append([]byte(`{"graph":`), append(data, '}')...)); err == nil {
				t.Fatal("no graph span for a bare graph that fits in an envelope")
			}
			return
		}
		got, env, err := readRequest(append([]byte(`{"graph":`), append(span, '}')...))
		if err != nil || env == nil {
			t.Fatalf("span %q does not decode as an envelope's graph: %v", span, err)
		}
		sameGraph(t, got, want)
		if got.FingerprintHex() != want.FingerprintHex() {
			t.Fatal("fingerprints differ")
		}
	})
}

// TestGraphSpanNestingLimit checks the one bare graph without a span: an
// unknown key nested to exactly the decoder's depth limit is accepted
// bare, but one level deeper inside an envelope it would not be, so
// ReadBody gives no GraphJSON and a forward encodes the graph instead.
func TestGraphSpanNestingLimit(t *testing.T) {
	for _, tc := range []struct {
		arrays int
		span   bool
	}{{9998, true}, {9999, false}} {
		body := []byte(`{"x":` + strings.Repeat("[", tc.arrays) + strings.Repeat("]", tc.arrays) +
			`,"tasks":[{"name":"a","durations":[1]}]}`)
		b, err := sdf3x.ReadBody(bytes.NewReader(body), int64(len(body)))
		if err != nil {
			t.Fatalf("%d arrays deep: %v", tc.arrays, err)
		}
		if (b.GraphJSON != nil) != tc.span {
			t.Fatalf("%d arrays deep: span %v, want %v", tc.arrays, b.GraphJSON != nil, tc.span)
		}
		b.Release()
		_, _, err = readRequest(append([]byte(`{"graph":`), append(body, '}')...))
		if (err == nil) != tc.span {
			t.Fatalf("%d arrays deep inside an envelope: %v", tc.arrays, err)
		}
	}
}
