package sdf3x_test

import (
	"bytes"
	"math"
	"slices"
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

// FuzzAppendJSON holds the one graph writer to the reflection writer it
// replaced: AppendJSON appends exactly json.Marshal's bytes for the graph,
// WriteCompactJSON those and a newline, and WriteJSON the indented
// encoder's bytes. The graph is built without validation from the inputs:
// tasks are named by the "|"-separated fields of names (so names may be
// empty, repeated, escaped or non-ASCII, and "" gives no tasks), buffers by
// those of bufNames, and shape supplies phase counts, durations, rates,
// endpoints, markings and capacities.
func FuzzAppendJSON(f *testing.F) {
	f.Add("fig", "a|b|c", "ab|", []byte{2, 1, 3, 1, 5, 0, 2, 1, 1, 1, 2, 0, 7})
	f.Add("", "", "", []byte{})
	f.Add("dup", "a|a||t1|t2|", "|x", []byte{1, 0x81, 0xff, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add("<esc>&\"q\u2028", "\x00\x1f|\xff\xfe|caf\u00e9|\u65e5\u672c|\U0001F600", "\t\n|<b>", []byte{3, 200, 100, 50, 4, 1, 2, 0x80, 0x7f, 9, 9, 9, 9})
	f.Add("big", "x|y", "e", []byte{3, 0x80, 0xff, 0x7f, 1, 0, 0, 1, 2, 3, 0x90, 0x85})
	f.Add("tN clash", "t1||t0|t1|t3_1|", "a|b|c", []byte{1, 1, 1, 2, 0, 1, 1, 3, 1, 4, 5, 9})
	f.Add("capacities", "a|b", "ab|ba", []byte{1, 1, 1, 2, 0, 1, 1, 3, 1, 4, 5, 9, 1, 0, 1, 1, 1, 1, 0, 0x81})
	f.Add("no phases", "a", "", []byte{0, 0, 0, 0, 0, 0, 0})
	f.Add("html", "<script>|&amp;|>", "</b>|&", []byte{1, 60, 2, 38, 62, 1, 0, 2, 1, 1, 2, 3, 4, 7, 8})
	f.Add("invalid \xc3( UTF-8", "\xed\xa0\x80|\xe2\x82|\u2029", "\xf0\x28", []byte{2, 1, 2, 1, 7, 2, 1, 0, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, name, names, bufNames string, shape []byte) {
		g := fuzzGraph(name, names, bufNames, shape)
		compact := sdf3x.WriteJSONReflect(g, false)
		if got, want := sdf3x.AppendJSON([]byte("pre"), g), append([]byte("pre"), compact[:len(compact)-1]...); !bytes.Equal(got, want) {
			t.Fatalf("AppendJSON:\n got  %q\n want %q", got, want)
		}
		var buf bytes.Buffer
		if err := sdf3x.WriteCompactJSON(&buf, g); err != nil || !bytes.Equal(buf.Bytes(), compact) {
			t.Fatalf("WriteCompactJSON (%v):\n got  %q\n want %q", err, buf.Bytes(), compact)
		}
		buf.Reset()
		if want := sdf3x.WriteJSONReflect(g, true); sdf3x.WriteJSON(&buf, g) != nil || !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("WriteJSON:\n got  %q\n want %q", buf.Bytes(), want)
		}
	})
}

// fuzzGraph builds FuzzAppendJSON's graph; see there.
func fuzzGraph(name, names, bufNames string, shape []byte) *csdf.Graph {
	next := func() int64 {
		if len(shape) == 0 {
			return 0
		}
		c := shape[0]
		shape = shape[1:]
		if c&0x80 != 0 { // far from zero, either sign
			return int64(int8(c)) << 40
		}
		return int64(c)
	}
	ints := func() []int64 {
		vs := make([]int64, uint64(next())%4)
		for i := range vs {
			vs[i] = next()
		}
		return vs
	}
	g := csdf.NewGraph(name)
	if names == "" {
		return g
	}
	for _, n := range strings.Split(names, "|") {
		g.AddTask(n, ints())
	}
	for _, n := range strings.Split(bufNames, "|") {
		src, dst := csdf.TaskID(uint64(next())%uint64(g.NumTasks())), csdf.TaskID(uint64(next())%uint64(g.NumTasks()))
		id := g.AddBuffer(n, src, dst, ints(), ints(), next())
		g.SetCapacity(id, next())
	}
	return g
}

// TestAppendJSONAllocations pins AppendJSON to no allocations on
// BlackScholes (41 tasks, 41 buffers) once the buffer has room: the names
// it resolves live in pooled scratch. The garbage collector and the race
// detector drop pooled scratch at random, which only adds allocations, so
// the fewest of several single runs is AppendJSON's own count.
func TestAppendJSONAllocations(t *testing.T) {
	g, err := gen.Industrial(gen.IndustrialSpecs()[0])
	if err != nil {
		t.Fatal(err)
	}
	b := sdf3x.AppendJSON(nil, g)
	fewest := math.Inf(1)
	for range 20 {
		fewest = min(fewest, testing.AllocsPerRun(1, func() { b = sdf3x.AppendJSON(b[:0], g) }))
	}
	if fewest > 0 {
		t.Errorf("AppendJSON allocates %.0f objects on a %d-task graph, want none", fewest, g.NumTasks())
	}
}

// TestAppendJSONRenamesUniquely checks that the names AppendJSON gives
// unnamed and repeated tasks are unique even where a task is already
// called "tN", so the document it writes decodes to the same structure.
func TestAppendJSONRenamesUniquely(t *testing.T) {
	g := csdf.NewGraph("rename")
	for _, n := range []string{"t1", "", "t1", "t2_1", "t2", ""} {
		g.AddTask(n, []int64{1})
	}
	for i := range g.NumTasks() {
		g.AddSDFBuffer("", csdf.TaskID(i), csdf.TaskID((i+1)%g.NumTasks()), 1, 1, 1)
	}
	doc := sdf3x.AppendJSON(nil, g)
	got, err := sdf3x.ReadJSON(bytes.NewReader(doc))
	if err != nil {
		t.Fatalf("%s: %v", doc, err)
	}
	var names []string
	for _, task := range got.Tasks() {
		names = append(names, task.Name)
	}
	if want := []string{"t1", "t1_1", "t2", "t2_1", "t4", "t5"}; !slices.Equal(names, want) {
		t.Fatalf("tasks written as %q, want %q", names, want)
	}
	if got.FingerprintHex() != g.FingerprintHex() {
		t.Fatal("fingerprint changed across the round trip")
	}
}
