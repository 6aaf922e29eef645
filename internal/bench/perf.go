package bench

import (
	"kiter/internal/csdf"
	"kiter/internal/gen"
	"kiter/internal/kperiodic"
)

// PerfCase is one graph of the tracked performance suite. The same cases
// back the `go test -bench BenchmarkKIter` targets and the BENCH_*.json
// emitter (cmd/benchjson), so the checked-in trajectory and the CI smoke
// numbers always measure the same work.
type PerfCase struct {
	Name string
	// MultiRound marks cases whose K-Iter run takes several Algorithm 1
	// rounds — the regime the incremental expansion pipeline targets.
	MultiRound bool
	Build      func() *csdf.Graph
}

// PerfCases returns the tracked suite: the paper's running example and an
// industrial-shaped decoder as single-digit-round sanity cases; a MimicDSP
// graph, whose single-round analysis is small enough that computing the
// repetition vector is a large share of it; LgTransient graph 0 with its
// durations ×113, where float rounding once kept Howard's policy
// iteration running to its round cap; plus the KIterChain family whose
// interleaved critical circuits force one periodicity bump per round.
func PerfCases() []PerfCase {
	return []PerfCase{
		{Name: "figure2", Build: gen.Figure2},
		{Name: "h263decoder", Build: gen.H263Decoder},
		{Name: "mimicdsp20", Build: func() *csdf.Graph { return gen.MimicDSP(21, 1).Graphs[20] }},
		{Name: "lgtransient0x113", Build: func() *csdf.Graph { return gen.LgTransient(1, 0).Graphs[0].ScaleDurations(113) }},
		{Name: "chain4", MultiRound: true, Build: func() *csdf.Graph { return gen.KIterChain(4) }},
		{Name: "chain8", MultiRound: true, Build: func() *csdf.Graph { return gen.KIterChain(8) }},
		{Name: "chain16", MultiRound: true, Build: func() *csdf.Graph { return gen.KIterChain(16) }},
	}
}

// KIterOptions exposes the guard-railed kperiodic options Run uses, so
// external benchmark drivers (cmd/benchjson) measure exactly the suite's
// configuration.
func (l Limits) KIterOptions() kperiodic.Options { return l.kiterOptions() }

// KIterMeta summarizes one Algorithm 1 run on a perf case: convergence
// rounds, the final bi-valued graph size, and the incremental-expansion
// arc accounting (how many constraint arcs were recomputed vs. replayed
// from a previous round's block cache).
type KIterMeta struct {
	Rounds     int   `json:"rounds"`
	Nodes      int   `json:"nodes"`
	Arcs       int   `json:"arcs"`
	ArcsBuilt  int64 `json:"arcs_built"`
	ArcsReused int64 `json:"arcs_reused"`
}

// MeasureKIter runs K-Iter once on g and extracts the meta counters from
// the iteration trace.
func MeasureKIter(g *csdf.Graph) (KIterMeta, error) {
	res, err := kperiodic.KIter(g, Limits{}.kiterOptions())
	if err != nil {
		return KIterMeta{}, err
	}
	meta := KIterMeta{Rounds: res.Iterations}
	for _, step := range res.Trace {
		meta.Nodes, meta.Arcs = step.Nodes, step.Arcs
		meta.ArcsBuilt += int64(step.ArcsBuilt)
		meta.ArcsReused += int64(step.ArcsReused)
	}
	return meta, nil
}
