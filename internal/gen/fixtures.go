// Package gen provides the benchmark graphs of the paper's evaluation
// (Section 4): the fixtures of Figures 1 and 2, reconstructions of
// classical DSP dataflow applications, and seeded random generators that
// match the published statistics of the SDF3 categories (Table 1) and of
// the IB+AG5CSDF industrial CSDF set (Table 2).
//
// The original benchmark files are not distributed with the paper; see
// README's "Generated stand-ins and ablations" for the substitution
// argument. Every generated graph is
// consistent by construction (rates are derived from a chosen repetition
// vector) and is delivered live: generators place enough initial tokens on
// feedback arcs for a 1-periodic schedule to exist, which is a sufficient
// liveness certificate.
package gen

import (
	"fmt"

	"kiter/internal/csdf"
)

// Figure1 returns the single-buffer example of Figure 1 — a buffer b
// between tasks t (3 phases) and t′ (2 phases) with inb = [2,3,1],
// outb = [2,5] and M0 = 0 — along with the buffer's ID.
func Figure1() (*csdf.Graph, csdf.BufferID) {
	g := csdf.NewGraph("figure1")
	t := g.AddTask("t", []int64{1, 1, 1})
	tp := g.AddTask("t'", []int64{1, 1})
	b := g.AddBuffer("b", t, tp, []int64{2, 3, 1}, []int64{2, 5}, 0)
	return g, b
}

// Figure2 returns the paper's running example: four tasks
// A(ϕ=2, d=[1,1]), B(ϕ=3, d=[1,1,1]), C(ϕ=1), D(ϕ=1) connected by five
// buffers with the printed rate vectors. The graph is consistent with
// repetition vector q = [3,4,6,1]; its exact maximum throughput anchors
// (1-periodic Ω = 18, optimal Ω* = 13, K* = q) and the critical-circuit
// correspondence to Figure 5 are listed under README's "Generated
// stand-ins and ablations".
func Figure2() *csdf.Graph {
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

// TwoTaskChain returns the smallest interesting SDF graph: A → B with unit
// rates and durations dA, dB. With sequential tasks its optimal period is
// max(dA, dB).
func TwoTaskChain(dA, dB int64) *csdf.Graph {
	g := csdf.NewGraph("two-task-chain")
	a := g.AddSDFTask("A", dA)
	b := g.AddSDFTask("B", dB)
	g.AddSDFBuffer("A->B", a, b, 1, 1, 0)
	return g
}

// HSDFRing returns a homogeneous ring of n unit-rate tasks with the given
// durations (cycled if shorter than n) and tokens initial tokens on the
// closing arc. Its optimal period is max(Σd / tokens, max d) — the classic
// event-graph formula — which makes it a precise oracle for tests.
func HSDFRing(n int, durations []int64, tokens int64) *csdf.Graph {
	g := csdf.NewGraph("hsdf-ring")
	ids := make([]csdf.TaskID, n)
	for i := 0; i < n; i++ {
		ids[i] = g.AddSDFTask("", durations[i%len(durations)])
	}
	for i := 0; i < n-1; i++ {
		g.AddSDFBuffer("", ids[i], ids[i+1], 1, 1, 0)
	}
	g.AddSDFBuffer("", ids[n-1], ids[0], 1, 1, tokens)
	return g
}

// UpDownSampler returns a two-stage SDF rate converter: Src →(1/L) Up
// →(L/M)… a producer expanding by factor up then contracting by factor
// down, with a feedback arc making the graph strongly connected (tokens
// sized for liveness).
func UpDownSampler(up, down int64) *csdf.Graph {
	g := csdf.NewGraph("updown")
	src := g.AddSDFTask("src", 1)
	u := g.AddSDFTask("up", 1)
	d := g.AddSDFTask("down", 1)
	sink := g.AddSDFTask("sink", 1)
	g.AddSDFBuffer("src->up", src, u, 1, 1, 0)
	g.AddSDFBuffer("up->down", u, d, up, down, 0)
	g.AddSDFBuffer("down->sink", d, sink, 1, 1, 0)
	// Feedback with ample tokens: bounds nothing, closes the cycle.
	g.AddSDFBuffer("sink->src", sink, src, down, up, 4*up*down)
	return g
}

// SampleRateConverter returns a reconstruction of the classical CD-to-DAT
// sample-rate converter SDFG (44.1 kHz → 48 kHz in four polyphase stages),
// the flagship "ActualDSP" example of the SDF3 suite. Rates follow the
// published stage ratios; durations are unit. Σq = 612.
func SampleRateConverter() *csdf.Graph {
	g := csdf.NewGraph("samplerate")
	in := g.AddSDFTask("cd", 1)
	s1 := g.AddSDFTask("fir1", 1)
	s2 := g.AddSDFTask("fir2", 1)
	s3 := g.AddSDFTask("fir3", 1)
	s4 := g.AddSDFTask("fir4", 1)
	out := g.AddSDFTask("dat", 1)
	g.AddSDFBuffer("b1", in, s1, 1, 1, 0)
	g.AddSDFBuffer("b2", s1, s2, 2, 3, 0)
	g.AddSDFBuffer("b3", s2, s3, 2, 7, 0)
	g.AddSDFBuffer("b4", s3, s4, 8, 7, 0)
	g.AddSDFBuffer("b5", s4, out, 5, 1, 0)
	return g
}

// CyclicCSDF returns a small strongly-connected CSDF graph with non-unit
// phases, exercising the cyclo-static constraint machinery on a feedback
// loop. Tokens on the feedback arc keep it live.
func CyclicCSDF() *csdf.Graph {
	g := csdf.NewGraph("cyclic-csdf")
	a := g.AddTask("A", []int64{1, 2})
	b := g.AddTask("B", []int64{2, 1, 1})
	c := g.AddTask("C", []int64{3})
	g.AddBuffer("A->B", a, b, []int64{1, 2}, []int64{1, 0, 1}, 0)
	g.AddBuffer("B->C", b, c, []int64{1, 1, 1}, []int64{3}, 0)
	g.AddBuffer("C->A", c, a, []int64{2}, []int64{1, 2}, 8)
	return g
}

// DeadlockedRing returns a two-task ring with no initial tokens anywhere:
// a structurally dead graph used to exercise deadlock detection.
func DeadlockedRing() *csdf.Graph {
	g := csdf.NewGraph("deadlocked")
	a := g.AddSDFTask("A", 1)
	b := g.AddSDFTask("B", 1)
	g.AddSDFBuffer("A->B", a, b, 1, 1, 0)
	g.AddSDFBuffer("B->A", b, a, 1, 1, 0)
	return g
}

// MultiRateCycle returns a strongly-connected multirate SDF graph whose
// repetition vector is non-trivial (q = [3,2,6]) with feedback markings
// just large enough to be live; used to exercise K growth in K-Iter.
func MultiRateCycle() *csdf.Graph {
	g := csdf.NewGraph("multirate-cycle")
	a := g.AddSDFTask("A", 2)
	b := g.AddSDFTask("B", 3)
	c := g.AddSDFTask("C", 1)
	g.AddSDFBuffer("A->B", a, b, 2, 3, 0)
	g.AddSDFBuffer("B->C", b, c, 3, 1, 0)
	g.AddSDFBuffer("C->A", c, a, 1, 2, 7)
	return g
}

// KIterChain returns a chain of n Figure-2-style gadgets linked by loose
// unit-rate buffers. Every gadget carries its own pair of competing
// circuits whose 1-periodic bounds interleave across gadgets, so Algorithm
// 1 resolves them one critical circuit at a time: K-Iter needs on the
// order of 2n rounds, and each round bumps the periodicity of a single
// gadget's tasks while the rest of the expansion is unchanged. The family
// is the multi-round stress case of the incremental-expansion benchmarks
// (BENCH_pr2.json): n = 8 converges in 17 rounds over a 200-node
// bi-valued graph.
func KIterChain(n int) *csdf.Graph {
	g := csdf.NewGraph(fmt.Sprintf("kiter-chain-%d", n))
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
			// Loose forward link: enough tokens never to constrain the
			// steady state, present only to make the graph connected.
			g.AddSDFBuffer("", prevD, d, 1, 1, 100)
		}
		prevD = d
	}
	return g
}
