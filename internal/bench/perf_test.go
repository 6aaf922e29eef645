package bench

import (
	"testing"

	"kiter/internal/kperiodic"
)

// TestPerfCaseAllocations pins the allocations of one K-Iter run and one
// 1-periodic evaluation on every perf case. Allocation counts are
// deterministic where timings are not, so this is the perf suite's CI
// gate. Each ceiling holds under -race, where sync.Pool drops a random
// share of the pooled K-Iter workspaces and a run then grows a fresh
// builder and solver, yet stays below the count without the pool.
//
// Measured over 100 runs after a warm-up (pooled / highest of 50 -race
// runs / workspace pool disabled), K-Iter then Evaluate1:
//
//	figure2           34/79/135    15/44/77
//	h263decoder       28/67/117    15/44/71
//	mimicdsp20        22/74/122    15/66/115
//	lgtransient0x113  22/241/446   15/241/439
//	chain4            69/148/239   18/65/124
//	chain8           113/226/372   22/94/185
//	chain16          202/404/638   30/165/306
//
// Each task-level strongly connected component is solved on its own, so
// an evaluation makes one Howard solve per component: the KIterChain
// graphs, with one component per gadget, take a few more allocations per
// Evaluate1 than with one solve of the whole graph, and fewer per K-Iter
// run, whose later rounds re-solve a single gadget.
func TestPerfCaseAllocations(t *testing.T) {
	ceilings := map[string]struct{ kiter, evaluate1 float64 }{
		"figure2":          {95, 50},
		"h263decoder":      {85, 50},
		"mimicdsp20":       {80, 80},
		"lgtransient0x113": {340, 340},
		"chain4":           {185, 80},
		"chain8":           {285, 115},
		"chain16":          {505, 190},
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
				allocs := testing.AllocsPerRun(100, func() {
					if err := m.run(); err != nil {
						t.Fatalf("%s: %v", m.name, err)
					}
				})
				if allocs > m.ceiling {
					t.Errorf("%s: %.0f allocs/run, ceiling %.0f", m.name, allocs, m.ceiling)
				}
			}
		})
	}
}
