package kperiodic

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"kiter/internal/csdf"
	"kiter/internal/mcr"
)

// figure2White rebuilds the paper's Figure 2 example locally (white-box
// tests cannot import gen without a cycle); it is the multi-round K-Iter
// hot path guarded below.
func figure2White() *csdf.Graph {
	g := csdf.NewGraph("figure2")
	a := g.AddTask("A", []int64{1, 1})
	b := g.AddTask("B", []int64{1, 1, 1})
	c := g.AddTask("C", []int64{1})
	d := g.AddTask("D", []int64{1})
	g.AddBuffer("A->B", a, b, []int64{3, 5}, []int64{1, 1, 4}, 0)
	g.AddBuffer("B->C", b, c, []int64{6, 2, 1}, []int64{6}, 0)
	g.AddBuffer("C->A", c, a, []int64{2}, []int64{1, 3}, 4)
	g.AddBuffer("A->D", a, d, []int64{3, 5}, []int64{24}, 13)
	g.AddBuffer("D->C", d, c, []int64{36}, []int64{6}, 6)
	return g
}

// arcKey renders one constraint arc canonically for set comparison.
func arcKey(g *mcr.Graph, i int) string {
	a := g.Arc(i)
	return fmt.Sprintf("%d>%d L%d H%s", a.From, a.To, a.L, a.H)
}

func sortedArcs(g *mcr.Graph) []string {
	keys := make([]string, g.NumArcs())
	for i := range keys {
		keys[i] = arcKey(g, i)
	}
	sort.Strings(keys)
	return keys
}

// TestIncrementalMatchesColdRebuild is the equivalence property behind the
// incremental expansion: across randomized sequences of K bumps, a builder
// carried from round to round (replaying cached arc blocks) must produce
// exactly the arc set — and hence the MCRP result — of a builder built
// cold for the same K.
func TestIncrementalMatchesColdRebuild(t *testing.T) {
	graphs := []*csdf.Graph{figure1(), figure2White()}
	for _, seq := range []bool{true, false} {
		for gi, g := range graphs {
			opt := Options{AutoConcurrency: !seq}
			q, err := g.RepetitionVector()
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(gi)*31 + boolSeed(seq)))
			K := make([]int64, g.NumTasks())
			for i := range K {
				K[i] = 1
			}
			inc, err := freshBuilder(g, q, K, opt)
			if err != nil {
				t.Fatal(err)
			}
			for step := 0; step < 12; step++ {
				// Random bump: grow the K of a random subset of tasks by a
				// small factor, as updateK would for a critical circuit.
				if step > 0 {
					for t := range K {
						if rng.Intn(3) == 0 {
							K[t] *= int64(2 + rng.Intn(2))
							if K[t] > 24 {
								K[t] = 1 // wrap to keep expansions small
							}
						}
					}
					if err := inc.setK(K); err != nil {
						t.Fatal(err)
					}
				}
				if err := inc.build(); err != nil {
					t.Fatal(err)
				}
				cold, err := freshBuilder(g, q, K, opt)
				if err != nil {
					t.Fatal(err)
				}
				if err := cold.build(); err != nil {
					t.Fatal(err)
				}
				if inc.stats.arcsBuilt+inc.stats.arcsReused != inc.mg.NumArcs() {
					t.Fatalf("step %d: stats built %d + reused %d != arcs %d",
						step, inc.stats.arcsBuilt, inc.stats.arcsReused, inc.mg.NumArcs())
				}
				gotArcs, wantArcs := sortedArcs(inc.mg), sortedArcs(cold.mg)
				if len(gotArcs) != len(wantArcs) {
					t.Fatalf("step %d K=%v: incremental has %d arcs, cold %d",
						step, K, len(gotArcs), len(wantArcs))
				}
				for i := range gotArcs {
					if gotArcs[i] != wantArcs[i] {
						t.Fatalf("step %d K=%v: arc %d differs: %q vs %q",
							step, K, i, gotArcs[i], wantArcs[i])
					}
				}
				incRes, incErr := mcr.Solve(inc.mg, mcr.Options{})
				coldRes, coldErr := mcr.Solve(cold.mg, mcr.Options{})
				if (incErr == nil) != (coldErr == nil) {
					t.Fatalf("step %d K=%v: solve errs diverge: %v vs %v", step, K, incErr, coldErr)
				}
				if incErr == nil && incRes.Ratio.Cmp(coldRes.Ratio) != 0 {
					t.Fatalf("step %d K=%v: ratio %s (incremental) != %s (cold)",
						step, K, incRes.Ratio, coldRes.Ratio)
				}
			}
		}
	}
}

func boolSeed(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// TestKIterReusesBlocks checks that the multi-round Figure 2 run actually
// exercises the cache: later rounds must replay arcs, and each round's
// accounting must cover the whole constraint graph.
func TestKIterReusesBlocks(t *testing.T) {
	res, err := KIter(figure2White(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations < 2 {
		t.Fatalf("Figure 2 converged in %d rounds; the reuse test needs ≥ 2", res.Iterations)
	}
	reused := 0
	for i, step := range res.Trace {
		if step.ArcsBuilt+step.ArcsReused != step.Arcs {
			t.Errorf("round %d: built %d + reused %d != arcs %d",
				i, step.ArcsBuilt, step.ArcsReused, step.Arcs)
		}
		if i == 0 && step.ArcsReused != 0 {
			t.Errorf("round 0 reused %d arcs before anything was cached", step.ArcsReused)
		}
		reused += step.ArcsReused
	}
	if reused == 0 {
		t.Error("no arcs were reused across the whole K-Iter run")
	}
}

// TestWarmRoundAllocations guards the allocation discipline of the Figure 2
// hot path: with the arc blocks warm and the solver scratch grown, a
// K-Iter style round (rebuild + MCRP solve) must stay within a handful of
// allocations — the Result's circuit slices, nothing proportional to the
// graph.
func TestWarmRoundAllocations(t *testing.T) {
	g := figure2White()
	q, err := g.RepetitionVector()
	if err != nil {
		t.Fatal(err)
	}
	K := []int64{3, 4, 6, 1} // the optimal K = q of Figure 2
	b, err := freshBuilder(g, q, K, Options{})
	if err != nil {
		t.Fatal(err)
	}
	solver := mcr.NewSolver()
	warm := func() {
		if err := b.setK(K); err != nil {
			t.Fatal(err)
		}
		if err := b.build(); err != nil {
			t.Fatal(err)
		}
		if _, err := solver.Solve(b.mg, mcr.Options{SkipCertify: true}); err != nil {
			t.Fatal(err)
		}
	}
	warm() // grow every backing array
	allocs := testing.AllocsPerRun(50, warm)
	// A warm round allocates only the Result's CycleArcs/CycleNodes copies
	// (plus tolerance for map-free incidentals); anything near the arc or
	// node count means a backing array stopped being reused.
	if allocs > 8 {
		t.Errorf("warm K-Iter round allocates %.1f objects/run, want ≤ 8", allocs)
	}
}

// figure2Chain rebuilds the KIterChain(n) family locally: n Figure 2
// gadgets with durations 10, linked D→D by loose unit-rate buffers. Their
// interleaved critical circuits make K-Iter bump one gadget per round, so
// the constraint graph grows a little on each of about 2n rounds.
func figure2Chain(n int) *csdf.Graph {
	g := csdf.NewGraph(fmt.Sprintf("figure2-chain-%d", n))
	var prevD csdf.TaskID
	for i := 0; i < n; i++ {
		a := g.AddTask(fmt.Sprintf("A%d", i), []int64{10, 10})
		b := g.AddTask(fmt.Sprintf("B%d", i), []int64{10, 10, 10})
		c := g.AddTask(fmt.Sprintf("C%d", i), []int64{10})
		d := g.AddTask(fmt.Sprintf("D%d", i), []int64{10})
		g.AddBuffer("", a, b, []int64{3, 5}, []int64{1, 1, 4}, 0)
		g.AddBuffer("", b, c, []int64{6, 2, 1}, []int64{6}, 0)
		g.AddBuffer("", c, a, []int64{2}, []int64{1, 3}, 4)
		g.AddBuffer("", a, d, []int64{3, 5}, []int64{24}, 13)
		g.AddBuffer("", d, c, []int64{36}, []int64{6}, 6)
		if i > 0 {
			g.AddSDFBuffer("", prevD, d, 1, 1, 100)
		}
		prevD = d
	}
	return g
}

// TestKIterRunAllocations guards the allocation discipline of a whole
// multi-round K-Iter run, which TestWarmRoundAllocations's fixed-K round
// cannot see: the constraint graph grows on every round, so scratch sized
// exactly to each round's graph — the MCRP arc arena, its adjacency index,
// the solver's per-node arrays — would reallocate on every one of them.
func TestKIterRunAllocations(t *testing.T) {
	g := figure2Chain(8)
	res, err := KIter(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations < 16 {
		t.Fatalf("chain of 8 gadgets converged in %d rounds; the guard needs ≥ 16", res.Iterations)
	}
	run := func() {
		if _, err := KIter(g, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	// The fewest of 30 single runs: under the race detector sync.Pool
	// drops a random share of its entries, and a run that starts from a
	// new workspace allocates more, so one run in the pool's favour is
	// what both builds can be held to.
	allocs := math.Inf(1)
	for range 30 {
		allocs = min(allocs, testing.AllocsPerRun(1, run))
	}
	// 17 rounds take 112 allocations: per round the new K vector, the
	// trace step and the critical circuit, plus one Howard answer per
	// strongly connected component solved (all 8 in the first round, one
	// per round after), and the graph's facts once. The builder, its block
	// caches, the arc arena and the solver's arrays come from the pooled
	// workspace a previous run grew. Without the pool the count is about
	// 370; with the whole graph solved every round it was about 380, with
	// the arena and the solver's arrays sized exactly to each round's
	// graph about 505, and with the math/big repetition vector nearly
	// 2900. (The arena's own growth is guarded in mcr by
	// TestReserveGrowsGeometrically.)
	if allocs > 112 {
		t.Errorf("%d-round K-Iter run allocates %.0f objects, want ≤ 112", res.Iterations, allocs)
	}
}

// TestRoundsResolveOnlyChangedComponent checks the per-component solve on
// the KIterChain(16) shape: each gadget is one strongly connected
// component, and each round bumps K on one gadget's critical circuit, so
// after the first round, which solves all 16 components, every round
// solves exactly one component no larger than a gadget — never the whole
// bi-valued graph.
func TestRoundsResolveOnlyChangedComponent(t *testing.T) {
	g := figure2Chain(16)
	f, err := facts(g)
	if err != nil {
		t.Fatal(err)
	}
	w := new(workspace)
	var solved []int
	w.b.traceSolve = func(nodes int) { solved = append(solved, nodes) }
	res, err := w.kiter(context.Background(), f, ones(g.NumTasks()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations < 30 {
		t.Fatalf("chain of 16 gadgets converged in %d rounds; the test needs ≥ 30", res.Iterations)
	}
	if want := 16 + res.Iterations - 1; len(solved) != want {
		t.Fatalf("%d rounds made %d component solves, want %d", res.Iterations, len(solved), want)
	}
	// A gadget's largest node count: its four tasks at their final K.
	gadget := 0
	for i := 0; i < 16; i++ {
		n := 0
		for t := 4 * i; t < 4*i+4; t++ {
			n += int(res.K[t]) * g.Task(csdf.TaskID(t)).Phases()
		}
		gadget = max(gadget, n)
	}
	for i, nodes := range solved[16:] {
		if nodes > gadget || 10*nodes > res.Nodes {
			t.Errorf("round %d solved %d nodes; a gadget has at most %d, the whole graph %d",
				i+2, nodes, gadget, res.Nodes)
		}
	}
	// The trace still describes the whole bi-valued graph.
	for i, step := range res.Trace {
		whole := 0
		for t, k := range step.K {
			whole += int(k) * g.Task(csdf.TaskID(t)).Phases()
		}
		if step.Nodes != whole {
			t.Errorf("round %d reports %d nodes, the whole bi-valued graph has %d", i+1, step.Nodes, whole)
		}
	}
}
