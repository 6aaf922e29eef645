package bench

import (
	"math"
	"testing"

	"kiter/internal/kperiodic"
)

// TestPerfCaseAllocations pins the allocations of one K-Iter run and one
// 1-periodic evaluation on every perf case. Allocation counts are
// deterministic where timings are not, so this is the perf suite's CI
// gate. Each count is the fewest of 30 single runs after a warm-up: under
// -race sync.Pool drops a random share of the pooled K-Iter workspaces,
// and a run that then grows a fresh builder and solver allocates more, so
// the fewest is what both builds can be held to, one ceiling for both.
//
// Measured (fewest of 30 runs, the same with and without -race), K-Iter
// then Evaluate1:
//
//	figure2           33     14
//	h263decoder       27     14
//	mimicdsp20        21     14
//	lgtransient0x113  21     14
//	chain4            68     17
//	chain8           112     21
//	chain16          201     29
//	h264enc           21     14
//
// An entry point validates its graph and computes the repetition vector
// and components once, as csdf.Facts, in five allocations. Each
// task-level strongly connected component is solved on its own, so an
// evaluation makes one Howard solve per component: the KIterChain graphs,
// with one component per gadget, take a few more allocations per
// Evaluate1 than with one solve of the whole graph, and fewer per K-Iter
// run, whose later rounds re-solve a single gadget.
func TestPerfCaseAllocations(t *testing.T) {
	ceilings := map[string]struct{ kiter, evaluate1 float64 }{
		"figure2":          {33, 14},
		"h263decoder":      {27, 14},
		"mimicdsp20":       {21, 14},
		"lgtransient0x113": {21, 14},
		"chain4":           {68, 17},
		"chain8":           {112, 21},
		"chain16":          {201, 29},
		"h264enc":          {21, 14},
	}
	opt := Limits{}.kiterOptions()
	for _, pc := range PerfCases() {
		t.Run(pc.Name, func(t *testing.T) {
			ceil, ok := ceilings[pc.Name]
			if !ok {
				t.Fatalf("perf case %s has no allocation ceiling", pc.Name)
			}
			g := pc.Build()
			for _, m := range []struct {
				name    string
				ceiling float64
				run     func() error
			}{
				{"KIter", ceil.kiter, func() error { _, err := kperiodic.KIter(g, opt); return err }},
				{"Evaluate1", ceil.evaluate1, func() error { _, err := kperiodic.Evaluate1(g, opt); return err }},
			} {
				// The warm-up call leaves a grown workspace in the pool.
				if err := m.run(); err != nil {
					t.Fatalf("%s: %v", m.name, err)
				}
				allocs := math.Inf(1)
				for i := 0; i < 30; i++ {
					allocs = min(allocs, testing.AllocsPerRun(1, func() {
						if err := m.run(); err != nil {
							t.Fatalf("%s: %v", m.name, err)
						}
					}))
				}
				if allocs > m.ceiling {
					t.Errorf("%s: %.0f allocs/run, ceiling %.0f", m.name, allocs, m.ceiling)
				}
			}
		})
	}
}
