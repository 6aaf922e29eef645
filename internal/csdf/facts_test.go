package csdf_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"kiter/internal/csdf"
	"kiter/internal/gen"
	"kiter/internal/sdf3x"
)

// repetitionGraphs returns the graphs of TestRepetitionInt64MatchesBig:
// random consistent graphs, the same graphs with one rate changed (most
// of them inconsistent), chains whose repetition vector leaves int64 at a
// random depth, and self-loops with and without balance.
func repetitionGraphs(t *testing.T) []*csdf.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(27))
	var graphs []*csdf.Graph
	for seed := int64(0); seed < 300; seed++ {
		g, err := gen.Random(gen.Profile{
			Name: fmt.Sprint("random-", seed), Seed: seed,
			Tasks: 2 + rng.Intn(12), Buffers: 4 + rng.Intn(20),
			QLadder:   []int64{1, 2, 3, 4, 6, 8, 9, 12, 16, 27},
			MaxPhases: 1 + rng.Intn(3), RateFactor: 1 + rng.Int63n(3),
			BackEdgeFrac: 0.3, Ring: seed%2 == 0,
		})
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g)
		b := csdf.BufferID(rng.Intn(g.NumBuffers()))
		bad, err := g.CloneWithEdits(csdf.SetProduction(b, 1, g.Buffer(b).In[0]+1+rng.Int63n(3)))
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, bad)
	}
	for depth := 2; depth < 60; depth++ {
		g := csdf.NewGraph(fmt.Sprint("chain-", depth))
		prev := g.AddSDFTask("t0", 1)
		for i := 1; i < depth; i++ {
			next := g.AddSDFTask(fmt.Sprint("t", i), 1)
			g.AddSDFBuffer("", prev, next, 8+rng.Int63n(8), 1+rng.Int63n(2), 0)
			prev = next
		}
		if depth%3 == 0 {
			// Close the chain into a ring, balanced or not.
			g.AddSDFBuffer("", prev, 0, 1, 1+rng.Int63n(2), 1)
		}
		graphs = append(graphs, g)
	}
	for _, rates := range [][2]int64{{2, 2}, {2, 3}} {
		g := csdf.NewGraph("self-loop")
		a := g.AddSDFTask("a", 1)
		b := g.AddSDFTask("b", 1)
		g.AddSDFBuffer("ab", a, b, 2, 1, 0)
		g.AddSDFBuffer("bb", b, b, rates[0], rates[1], 3)
		graphs = append(graphs, g)
	}
	return graphs
}

// TestRepetitionInt64MatchesBig checks the int64 repetition vector
// against the exact rational reference on random, inconsistent and
// overflowing graphs: where the int64 walk finishes, its vector or its
// inconsistency error is the reference's; where it cannot, RepetitionVector
// still returns the reference's vector, error or ErrRepetitionOverflow.
func TestRepetitionInt64MatchesBig(t *testing.T) {
	var ints, inconsistent, overflow int
	for _, g := range repetitionGraphs(t) {
		want, wantErr := g.RepetitionVectorBig()
		fits := wantErr == nil
		for _, v := range want {
			fits = fits && v.IsInt64()
		}
		q, err := g.RepetitionVector()
		qi, ok, ierr := csdf.RepetitionInt(g)
		switch {
		case wantErr != nil:
			inconsistent++
			if err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("%s: RepetitionVector err %v, reference %v", g.Name, err, wantErr)
			}
			if ok && (ierr == nil || ierr.Error() != wantErr.Error()) {
				t.Fatalf("%s: int64 walk err %v, reference %v", g.Name, ierr, wantErr)
			}
		case !fits:
			overflow++
			if !errors.Is(err, csdf.ErrRepetitionOverflow) || ok {
				t.Fatalf("%s: err %v and int64 walk ok=%v for a vector beyond int64", g.Name, err, ok)
			}
		default:
			for i, v := range want {
				if q[i] != v.Int64() || ok && qi[i] != v.Int64() {
					t.Fatalf("%s: q = %v (int64 walk %v, ok=%v), reference %v", g.Name, q, qi, ok, want)
				}
			}
			if err != nil || ok && ierr != nil {
				t.Fatalf("%s: err %v / %v for a consistent graph", g.Name, err, ierr)
			}
		}
		if ok {
			ints++
		}
	}
	t.Logf("%d inconsistent, %d overflowing, %d finished in int64", inconsistent, overflow, ints)
	if inconsistent < 100 || overflow < 10 || ints < 500 {
		t.Fatalf("%d inconsistent, %d overflowing, %d finished in int64: the mix no longer covers every path", inconsistent, overflow, ints)
	}
}

// sameFacts reports how got differs from the facts of a fresh
// computation, or "" when it does not.
func sameFacts(got, want *csdf.Facts) string {
	if got.Graph().FingerprintHex() != want.Graph().FingerprintHex() {
		return "graphs differ"
	}
	gq, gerr := got.Repetition()
	wq, werr := want.Repetition()
	if fmt.Sprint(gerr) != fmt.Sprint(werr) || !slices.Equal(gq, wq) {
		return fmt.Sprintf("q = %v (%v), fresh %v (%v)", gq, gerr, wq, werr)
	}
	gs, ws := got.SCCs(), want.SCCs()
	if !slices.Equal(gs.Comp, ws.Comp) || !slices.Equal(gs.Tasks, ws.Tasks) || !slices.Equal(gs.Start, ws.Start) {
		return fmt.Sprintf("components %v, fresh %v", gs.Comp, ws.Comp)
	}
	return ""
}

// TestFactsAfterEdits derives facts through random edit sets and
// capacity application and checks them against facts computed afresh for
// the same graph: the same validation verdict, repetition vector (or its
// error) and components. Rate edits must not carry over a vector they
// change, and capacities must not carry over components they merge.
func TestFactsAfterEdits(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	var rateChanges, merged, invalid int
	for seed := int64(0); seed < 400; seed++ {
		g, err := gen.Random(gen.Profile{
			Name: fmt.Sprint("edits-", seed), Seed: seed,
			Tasks: 2 + rng.Intn(6), Buffers: 2 + rng.Intn(8),
			MaxPhases: 1 + rng.Intn(3), MaxDuration: 9,
			BackEdgeFrac: 0.2 * float64(rng.Intn(3)), Ring: seed%4 == 0,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range g.NumBuffers() {
			if b := g.Buffer(csdf.BufferID(i)); rng.Intn(2) == 0 {
				g.SetCapacity(b.ID, b.Initial+b.TotalIn()+b.TotalOut()+rng.Int63n(3))
			}
		}
		base, err := csdf.NewFacts(g)
		if err != nil {
			t.Fatal(err)
		}
		var edits []csdf.Edit
		for range 1 + rng.Intn(4) {
			task := csdf.TaskID(rng.Intn(g.NumTasks()))
			buf := csdf.BufferID(rng.Intn(g.NumBuffers()))
			switch rng.Intn(5) {
			case 0:
				edits = append(edits, csdf.SetDuration(task, rng.Intn(g.Task(task).Phases()+1), rng.Int63n(12)-1))
			case 1:
				edits = append(edits, csdf.SetInitial(buf, rng.Int63n(g.Buffer(buf).Capacity+3)-1))
			case 2:
				edits = append(edits, csdf.SetProduction(buf, 1+rng.Intn(len(g.Buffer(buf).In)), rng.Int63n(5)))
			case 3:
				edits = append(edits, csdf.SetConsumption(buf, 0, 1+rng.Int63n(4)))
			default:
				edits = append(edits, csdf.SetDuration(task, 0, rng.Int63n(9)))
			}
		}
		got, err := base.CloneWithEdits(edits...)
		clone, cerr := g.CloneWithEdits(edits...)
		if cerr != nil {
			t.Fatalf("seed %d: clone: %v", seed, cerr)
		}
		want, werr := csdf.NewFacts(clone)
		if fmt.Sprint(err) != fmt.Sprint(werr) {
			t.Fatalf("seed %d: derived facts err %v, fresh %v", seed, err, werr)
		}
		if werr != nil {
			invalid++
			continue
		}
		if d := sameFacts(got, want); d != "" {
			t.Fatalf("seed %d after %d edits: %s", seed, len(edits), d)
		}
		bq, _ := base.Repetition()
		if wq, _ := want.Repetition(); !slices.Equal(bq, wq) {
			rateChanges++
		}
		gotB, err := got.WithCapacities()
		bounded, berr := clone.WithCapacities()
		if fmt.Sprint(err) != fmt.Sprint(berr) {
			t.Fatalf("seed %d: derived capacities err %v, fresh %v", seed, err, berr)
		}
		if berr != nil {
			continue
		}
		wantB, err := csdf.NewFacts(bounded)
		if err != nil {
			t.Fatal(err)
		}
		if d := sameFacts(gotB, wantB); d != "" {
			t.Fatalf("seed %d with capacities: %s", seed, d)
		}
		if got.SCCs().Len() != gotB.SCCs().Len() {
			merged++
		}
	}
	t.Logf("%d rate edits changed q, %d capacity sets merged components, %d edit sets were invalid", rateChanges, merged, invalid)
	if rateChanges < 20 || merged < 20 || invalid < 20 {
		t.Fatalf("%d rate edits changed q, %d capacity sets merged components, %d edit sets were invalid: the mix no longer covers every path",
			rateChanges, merged, invalid)
	}
}

// TestDecodedFactsConcurrent decodes the Table 1 graphs (the four suites
// gengraph writes, at its default seed) and the random, inconsistent and
// overflowing graphs of repetitionGraphs, each with a capacity on every
// buffer, and reads the facts the decoder returned, and those of the
// bounded graph derived from them, from many goroutines at once, half of
// them through a clone that shares the facts. Every reader must see the
// repetition vector (or error) that RepetitionVectorBig finds and the
// components of facts computed alone, one read at a time, before the
// readers start. Run it under -race: the facts are computed on first
// use, by whichever reader comes first.
func TestDecodedFactsConcurrent(t *testing.T) {
	graphs := repetitionGraphs(t)
	for _, s := range []gen.Suite{gen.ActualDSP(), gen.MimicDSP(10, 1), gen.LgHSDF(3, 1001), gen.LgTransient(3, 2001)} {
		graphs = append(graphs, s.Graphs...)
	}
	const readers = 8
	var inconsistent, overflow int
	for _, g := range graphs {
		var buf bytes.Buffer
		if err := sdf3x.WriteJSON(&buf, g.ScaleCapacities(1)); err != nil {
			t.Fatal(err)
		}
		decoded, err := sdf3x.ReadFacts(&buf)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		bounded, err := decoded.WithCapacities()
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		for _, f := range []*csdf.Facts{decoded, bounded} {
			want, err := csdf.NewFacts(f.Graph())
			if err != nil {
				t.Fatalf("%s: %v", f.Graph().Name, err)
			}
			q, qErr := want.Repetition()
			want.SCCs()
			big, bigErr := f.Graph().RepetitionVectorBig()
			fits := bigErr == nil
			for _, v := range big {
				fits = fits && v.IsInt64()
			}
			switch {
			case bigErr != nil:
				inconsistent++
				if qErr == nil || qErr.Error() != bigErr.Error() {
					t.Fatalf("%s: err %v, RepetitionVectorBig %v", f.Graph().Name, qErr, bigErr)
				}
			case !fits:
				overflow++
				if !errors.Is(qErr, csdf.ErrRepetitionOverflow) {
					t.Fatalf("%s: err %v for a vector beyond int64", f.Graph().Name, qErr)
				}
			default:
				for i, v := range big {
					if qErr != nil || q[i] != v.Int64() {
						t.Fatalf("%s: q = %v (%v), RepetitionVectorBig %v", f.Graph().Name, q, qErr, big)
					}
				}
			}
			clone, err := f.CloneWithEdits(csdf.SetDuration(0, 0, f.Graph().Task(0).Durations[0]))
			if err != nil {
				t.Fatalf("%s: %v", f.Graph().Name, err)
			}
			diffs := make([]string, readers)
			var wg sync.WaitGroup
			for i := range diffs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if i%2 == 0 {
						diffs[i] = sameFacts(f, want)
					} else {
						diffs[i] = sameFacts(clone, want)
					}
				}()
			}
			wg.Wait()
			for _, d := range diffs {
				if d != "" {
					t.Fatalf("%s: %s", f.Graph().Name, d)
				}
			}
		}
	}
	if inconsistent < 100 || overflow < 10 {
		t.Fatalf("%d inconsistent and %d overflowing graphs: the mix no longer covers every path", inconsistent, overflow)
	}
}

// TestFactsAreLazy pins that building facts computes none of them:
// NewFacts and Assemble allocate one object, the facts, and the facts of
// a clone or of the bounded graph one object more than the graph they
// describe. A repetition vector or components computed up front would
// allocate their slices on every call.
func TestFactsAreLazy(t *testing.T) {
	g := gen.Figure2().ScaleCapacities(1)
	f, err := csdf.NewFacts(g)
	if err != nil {
		t.Fatal(err)
	}
	tasks := []csdf.Task{{Name: "a", Durations: []int64{1}}, {Name: "b", Durations: []int64{2}}}
	buffers := []csdf.Buffer{
		{Src: 0, Dst: 1, In: []int64{1}, Out: []int64{1}},
		{Src: 1, Dst: 0, In: []int64{1}, Out: []int64{1}, Initial: 1},
	}
	edit := csdf.SetDuration(0, 0, 7)
	for _, c := range []struct {
		name        string
		build, base func()
	}{
		{"NewFacts", func() { csdf.NewFacts(g) }, func() {}},
		{"Assemble", func() { csdf.Assemble("ab", tasks, buffers) }, func() {}},
		{"CloneWithEdits", func() { f.CloneWithEdits(edit) }, func() { g.CloneWithEdits(edit) }},
		{"WithCapacities", func() { f.WithCapacities() }, func() { g.WithCapacities() }},
	} {
		got, graph := testing.AllocsPerRun(20, c.build), testing.AllocsPerRun(20, c.base)
		if got != graph+1 {
			t.Errorf("%s allocates %.0f objects, want %.0f for the graph and 1 for the facts", c.name, got, graph)
		}
	}
}
