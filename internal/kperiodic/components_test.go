package kperiodic_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"kiter/internal/csdf"
	"kiter/internal/gen"
	"kiter/internal/kperiodic"
	"kiter/internal/mcr"
)

// multiSCCGraphs returns random graphs without a ring backbone whose
// feedback buffers leave several strongly connected components, each also
// with its initial tokens cut to a quarter, which deadlocks some.
func multiSCCGraphs(t *testing.T, n int) []*csdf.Graph {
	t.Helper()
	var out []*csdf.Graph
	for seed := int64(1); len(out) < n && seed < 200; seed++ {
		g, err := gen.Random(gen.Profile{
			Name:         fmt.Sprintf("multi-scc-%d", seed),
			Seed:         seed,
			Tasks:        4 + int(seed%7),
			Buffers:      6 + int(seed%9),
			QLadder:      []int64{1, 2, 3, 4, 6},
			MaxPhases:    3,
			MaxDuration:  9,
			RateFactor:   1 + seed%2,
			BackEdgeFrac: 0.3 + float64(seed%3)/10,
			TokensSlack:  1,
		})
		if err != nil || g.TaskSCCs(nil).Len() < 2 {
			continue
		}
		out = append(out, g)
	}
	if len(out) < n {
		t.Fatalf("found %d multi-SCC random graphs, want %d", len(out), n)
	}
	return out
}

// divisorK returns a periodicity vector whose every entry is a random
// divisor of the matching repetition count.
func divisorK(rng *rand.Rand, q []int64) []int64 {
	K := make([]int64, len(q))
	for t, qt := range q {
		var divs []int64
		for d := int64(1); d <= qt; d++ {
			if qt%d == 0 {
				divs = append(divs, d)
			}
		}
		K[t] = divs[rng.Intn(len(divs))]
	}
	return K
}

// TestComponentsMatchWholeGraph checks the per-component solve against one
// certified MCRP over the whole bi-valued graph, at K = 1, K = q and
// random divisor vectors: the same maximum ratio, and a deadlock or an
// unbounded throughput exactly when the whole graph has an infeasible
// circuit or none at all. Unlike the K-Iter-vs-expansion oracle, whose
// two sides both solve per component, the reference here never
// decomposes.
func TestComponentsMatchWholeGraph(t *testing.T) {
	graphs := multiSCCGraphs(t, 12)
	for _, g := range graphs[:6] {
		starved := g.Clone()
		for i := range starved.Buffers() {
			starved.Buffer(csdf.BufferID(i)).Initial /= 4
		}
		graphs = append(graphs, starved)
	}
	graphs = append(graphs, gen.Figure2(), gen.KIterChain(4), gen.SampleRateConverter(), gen.H263Decoder())
	rng := rand.New(rand.NewSource(23))
	compared, deadlocks := 0, 0
	for _, g := range graphs {
		q, err := g.RepetitionVector()
		if err != nil {
			t.Fatal(err)
		}
		ones := make([]int64, len(q))
		for i := range ones {
			ones[i] = 1
		}
		for _, opt := range []kperiodic.Options{{}, {AutoConcurrency: true}} {
			for _, K := range [][]int64{ones, q, divisorK(rng, q), divisorK(rng, q)} {
				want, wantErr := kperiodic.WholeGraphMCR(g, K, opt)
				ev, err := kperiodic.EvaluateK(g, K, opt)
				var de *mcr.DeadlockError
				var dead *kperiodic.DeadlockError
				var infeasible *kperiodic.ErrInfeasibleK
				switch {
				case errors.As(wantErr, &de):
					if !errors.As(err, &dead) && !errors.As(err, &infeasible) {
						t.Errorf("%s K=%v %+v: whole graph infeasible, per component %v", g.Name, K, opt, err)
					}
					deadlocks++
				case errors.Is(wantErr, mcr.ErrNoCycle):
					if !errors.Is(err, kperiodic.ErrUnbounded) {
						t.Errorf("%s K=%v %+v: whole graph has no circuit, per component %v", g.Name, K, opt, err)
					}
				case wantErr != nil:
					t.Fatalf("%s K=%v: whole graph: %v", g.Name, K, wantErr)
				case err != nil:
					t.Errorf("%s K=%v %+v: whole graph Ω=%s, per component %v", g.Name, K, opt, want, err)
				case ev.Period.Cmp(want) != 0 || !ev.Certified:
					t.Errorf("%s K=%v %+v: per component Ω=%s (certified %v), whole graph Ω=%s",
						g.Name, K, opt, ev.Period, ev.Certified, want)
				default:
					compared++
				}
			}
		}
	}
	if compared < 100 || deadlocks == 0 {
		t.Errorf("compared %d periods and %d deadlocks; the oracle needs ≥ 100 and ≥ 1", compared, deadlocks)
	}
}

// TestStartKMetamorphic starts Algorithm 1 from K = 1, from K = q and
// from random divisor vectors of q. Theorem 4's test depends only on the
// final K and the critical circuit, so every start must reach the same
// certified Ω with Optimal = true.
func TestStartKMetamorphic(t *testing.T) {
	var graphs []*csdf.Graph
	for seed := int64(1); seed <= 12; seed++ {
		g, err := gen.RandomSmall(seed)
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	graphs = append(graphs, gen.Figure2(), gen.KIterChain(4), gen.KIterChain(8))
	graphs = append(graphs, multiSCCGraphs(t, 6)...)
	rng := rand.New(rand.NewSource(5))
	for _, g := range graphs {
		want, err := kperiodic.KIter(g, kperiodic.Options{})
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		q, err := g.RepetitionVector()
		if err != nil {
			t.Fatal(err)
		}
		for _, start := range [][]int64{q, divisorK(rng, q), divisorK(rng, q), divisorK(rng, q)} {
			got, err := kperiodic.KIterFrom(g, start, kperiodic.Options{})
			if err != nil {
				t.Fatalf("%s from K=%v: %v", g.Name, start, err)
			}
			if got.Period.Cmp(want.Period) != 0 || !got.Optimal || !got.Certified {
				t.Errorf("%s from K=%v: Ω=%s optimal=%v certified=%v, from K=1 Ω=%s",
					g.Name, start, got.Period, got.Optimal, got.Certified, want.Period)
			}
		}
	}
}
