package bench

import (
	"testing"

	"kiter/internal/kperiodic"
)

// BenchmarkKIter tracks the Algorithm 1 hot path over the perf suite
// (PerfCases): single-round sanity cases plus the multi-round KIterChain
// family that exercises the incremental expansion. Besides time and
// allocations it reports each case's convergence rounds, how many
// constraint arcs the incremental expansion built versus replayed, how
// many phase pairs it tested to build them, and the Howard iterations
// summed over the rounds — the solved work, which falls when a round
// re-solves only the components whose K changed — taken from one untimed
// run.
func BenchmarkKIter(b *testing.B) {
	for _, pc := range PerfCases() {
		b.Run(pc.Name, func(b *testing.B) {
			g := pc.Build()
			opt := Limits{}.kiterOptions()
			res, err := kperiodic.KIter(g, opt)
			if err != nil {
				b.Fatal(err)
			}
			var built, reused, pairs, howard int
			for _, step := range res.Trace {
				built += step.ArcsBuilt
				reused += step.ArcsReused
				pairs += step.PairsTested
				howard += step.HowardIterations
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := kperiodic.KIter(g, opt); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Iterations), "rounds")
			b.ReportMetric(float64(built), "arcs_built")
			b.ReportMetric(float64(reused), "arcs_reused")
			b.ReportMetric(float64(pairs), "pairs_tested")
			b.ReportMetric(float64(howard), "howard_iters")
		})
	}
}

// BenchmarkEvaluate1 tracks the single-round 1-periodic evaluation — the
// floor the incremental machinery must not regress.
func BenchmarkEvaluate1(b *testing.B) {
	for _, pc := range PerfCases() {
		b.Run(pc.Name, func(b *testing.B) {
			g := pc.Build()
			opt := Limits{}.kiterOptions()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := kperiodic.Evaluate1(g, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
