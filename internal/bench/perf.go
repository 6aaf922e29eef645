package bench

import (
	"kiter/internal/csdf"
	"kiter/internal/gen"
)

// PerfCase is one graph of the tracked performance suite. The same cases
// back the `go test -bench BenchmarkKIter` targets and the allocation
// pins in TestPerfCaseAllocations, so the CI smoke numbers and the gated
// allocation counts always measure the same work.
type PerfCase struct {
	Name  string
	Build func() *csdf.Graph
}

// PerfCases returns the tracked suite: the paper's running example and an
// industrial-shaped decoder as single-digit-round sanity cases; a MimicDSP
// graph, whose single-round analysis is small enough that computing the
// repetition vector is a large share of it; LgTransient graph 0 with its
// durations ×113, where float rounding once kept Howard's policy
// iteration running to its round cap; the KIterChain family whose
// interleaved critical circuits force one periodicity bump per round; and
// the Table 2 H264Enc stand-in (665 tasks, 3128 buffers), a single round
// on a graph large enough that the MCR solver is most of its time.
func PerfCases() []PerfCase {
	return []PerfCase{
		{Name: "figure2", Build: gen.Figure2},
		{Name: "h263decoder", Build: gen.H263Decoder},
		{Name: "mimicdsp20", Build: func() *csdf.Graph { return gen.MimicDSP(21, 1).Graphs[20] }},
		{Name: "lgtransient0x113", Build: func() *csdf.Graph { return gen.LgTransient(1, 0).Graphs[0].ScaleDurations(113) }},
		{Name: "chain4", Build: func() *csdf.Graph { return gen.KIterChain(4) }},
		{Name: "chain8", Build: func() *csdf.Graph { return gen.KIterChain(8) }},
		{Name: "chain16", Build: func() *csdf.Graph { return gen.KIterChain(16) }},
		{Name: "h264enc", Build: func() *csdf.Graph { return industrial("H264Enc") }},
	}
}

// industrial builds the named Table 2 stand-in with unbounded buffers.
func industrial(name string) *csdf.Graph {
	for _, spec := range gen.IndustrialSpecs() {
		if spec.Name == name {
			g, err := gen.Industrial(spec)
			if err != nil {
				panic(err)
			}
			return g
		}
	}
	panic("bench: no industrial spec " + name)
}
