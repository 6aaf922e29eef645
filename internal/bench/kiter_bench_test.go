package bench

import (
	"testing"

	"kiter/internal/kperiodic"
)

// BenchmarkKIter tracks the Algorithm 1 hot path over the perf suite
// (PerfCases): single-round sanity cases plus the multi-round KIterChain
// family that exercises the incremental expansion. Besides time and
// allocations it reports each case's convergence rounds and how many
// constraint arcs the incremental expansion built versus replayed, taken
// from one untimed run.
func BenchmarkKIter(b *testing.B) {
	for _, pc := range PerfCases() {
		b.Run(pc.Name, func(b *testing.B) {
			g := pc.Build()
			opt := Limits{}.kiterOptions()
			res, err := kperiodic.KIter(g, opt)
			if err != nil {
				b.Fatal(err)
			}
			var built, reused int
			for _, step := range res.Trace {
				built += step.ArcsBuilt
				reused += step.ArcsReused
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
