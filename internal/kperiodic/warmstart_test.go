package kperiodic_test

import (
	"testing"

	"kiter/internal/csdf"
	"kiter/internal/gen"
	"kiter/internal/kperiodic"
)

func howardIterations(res *kperiodic.KIterResult) int {
	n := 0
	for _, step := range res.Trace {
		n += step.HowardIterations
	}
	return n
}

// TestHowardConvergesDespiteFloatDefect pins the Phase B fix in Howard's
// policy iteration. At these duration multipliers the float rounding
// defect of a policy circuit's closing arc exceeds the comparison
// tolerance; counting that unchanged arc as an improvement kept Howard
// running to its 10000-round cap, 100× the solve's real cost.
func TestHowardConvergesDespiteFloatDefect(t *testing.T) {
	cases := []struct {
		g *csdf.Graph
		m int64
	}{
		{gen.LgTransient(1, 0).Graphs[0], 113},
		{gen.Modem(), 800},
	}
	for _, c := range cases {
		res, err := kperiodic.KIter(c.g.ScaleDurations(c.m), kperiodic.Options{})
		if err != nil {
			t.Fatalf("%s ×%d: %v", c.g.Name, c.m, err)
		}
		if n := howardIterations(res); n > 50 {
			t.Errorf("%s ×%d: %d Howard iterations over %d rounds, want ≤ 50",
				c.g.Name, c.m, n, res.Iterations)
		}
	}
}

// TestWarmStartedRoundsMatchColdEvaluations checks every round of
// multi-round K-Iter runs, whose MCRP solves start from the previous
// round's policy, against a cold, certified EvaluateK at the same K, and
// checks that the warm start actually saves Howard work on KIterChain(8),
// whose cold solves need more policy iterations the later the round.
func TestWarmStartedRoundsMatchColdEvaluations(t *testing.T) {
	graphs := []*csdf.Graph{gen.Figure2(), gen.KIterChain(4), gen.KIterChain(8), gen.Modem(), gen.H263Decoder()}
	for _, g := range graphs {
		for _, m := range []int64{1, 113} {
			sg := g.ScaleDurations(m)
			res, err := kperiodic.KIter(sg, kperiodic.Options{})
			if err != nil {
				t.Fatalf("%s ×%d: %v", g.Name, m, err)
			}
			cold := 0
			for i, step := range res.Trace {
				ev, err := kperiodic.EvaluateK(sg, step.K, kperiodic.Options{})
				if step.Infeasible {
					if err == nil {
						t.Errorf("%s ×%d round %d: K-Iter found K=%v infeasible, EvaluateK gives Ω=%s",
							g.Name, m, i+1, step.K, ev.Period)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s ×%d round %d: EvaluateK(%v): %v", g.Name, m, i+1, step.K, err)
				}
				if step.Period.Cmp(ev.Period) != 0 {
					t.Errorf("%s ×%d round %d: warm-started Ω=%s, cold Ω=%s at K=%v",
						g.Name, m, i+1, step.Period, ev.Period, step.K)
				}
				cold += ev.HowardIterations
			}
			if warm := howardIterations(res); res.Iterations >= 17 && 3*warm > 2*cold {
				t.Errorf("%s ×%d: %d rounds took %d warm-started Howard iterations, %d cold; want ≤ 2/3",
					g.Name, m, res.Iterations, warm, cold)
			}
		}
	}
}
