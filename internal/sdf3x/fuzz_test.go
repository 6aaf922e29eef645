package sdf3x_test

import (
	"bytes"
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
