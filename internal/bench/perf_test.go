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
//	figure2           41/74/132    18/37/66
//	h263decoder       37/66/114    18/35/59
//	mimicdsp20        23/61/111    16/60/104
//	lgtransient0x113  31/243/446   24/236/439
//	chain4            79/144/242   18/58/110
//	chain8           127/250/380   18/86/167
//	chain16          224/416/655   18/145/280
func TestPerfCaseAllocations(t *testing.T) {
	ceilings := map[string]struct{ kiter, evaluate1 float64 }{
		"figure2":          {95, 50},
		"h263decoder":      {85, 50},
		"mimicdsp20":       {80, 80},
		"lgtransient0x113": {340, 340},
		"chain4":           {185, 80},
		"chain8":           {310, 115},
		"chain16":          {520, 190},
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
