// Package mcr solves the Maximum Cost-to-time Ratio Problem (MCRP) on
// bi-valued directed graphs, the computational core of the K-Iter
// algorithm (Section 3.3 of the paper).
//
// A bi-valued graph G = (N, E) carries two weights per arc e: a cost L(e)
// (a phase duration, an integer) and a time H(e) (a rational, possibly
// negative). The cost-to-time ratio of a circuit c is
// R(c) = Σ L(e) / Σ H(e), and the MCRP asks for λ = max over elementary
// circuits of R(c) together with a critical circuit attaining it.
//
// The solver combines a float64 Howard policy iteration (fast path) with an
// exact certification loop: the candidate circuit's ratio is recomputed in
// exact rational arithmetic and a Bellman–Ford positive-cycle check on the
// arc weights L(e) − λ·H(e) either certifies optimality or produces a
// strictly better circuit, whose exact ratio becomes the new candidate.
// Since every candidate is the exact ratio of a real circuit and candidates
// strictly increase, the loop terminates; the published result is exact.
//
// The check itself runs in machine integers. With λ = p/r in lowest terms
// and M the lcm of the arcs' H denominators, W(e) = r·M·(L(e) − λ·H(e)) is
// an integer for every arc, and Bellman–Ford over W is Bellman–Ford over
// the rational weights with every distance multiplied by the positive
// constant r·M: the same comparisons succeed, the same predecessors are
// set and the same circuit is extracted, so no result depends on the
// arithmetic. When λ or an H is held in big form, or W or a distance
// leaves int64, the same pass runs in rat.Rat instead.
//
// Circuits whose total time is non-positive while their total cost is
// positive make the underlying scheduling LP infeasible; they are reported
// as a DeadlockError carrying the certificate circuit.
//
// Repeated resolutions should reuse a Solver (persistent scratch state)
// and rebuild the graph in place with Reset/Reserve, which keeps the work
// allocation-free once the backing arrays have grown to steady state
// (they grow geometrically, so a graph that grows a little every solve
// reallocates only now and then). internal/kperiodic keeps one Graph and
// one Solver in each workspace of a bounded pool, so they serve every
// strongly connected component of the task graph in every round of a
// K-Iter run, and then later evaluations of other graphs; a Solver
// carries no answer from one graph to the next, since Howard's starting
// policy comes from Options.InitPolicy alone. A K-Iter round re-solves
// only the components whose tasks' periodicity changed, and starts each
// one's Howard iteration from that component's previous final policy
// (Options.InitPolicy, Solver.Policy), mapped onto the rebuilt graph: a
// round then costs a few policy iterations instead of a number that grows
// with the round index.
//
// A policy circuit's ratio is always computed exactly (CycleLH), never
// from float64 sums of H: with large durations the float sums cancel, the
// policy's λ values jitter by more than the comparison tolerance, and
// Howard cycles between equivalent policies up to its round cap. Likewise
// an improvement step counts only when the policy actually changes: a
// circuit's closing arc carries its float rounding defect, and
// "improving" onto the arc already in the policy would never terminate.
package mcr

import (
	"errors"
	"fmt"

	"kiter/internal/rat"
)

// Arc is a bi-valued arc. L is the integer cost (a duration); H is the
// exact rational time weight. HF caches H as float64 for the fast path.
type Arc struct {
	From, To int
	L        int64
	H        rat.Rat
	HF       float64
}

// Graph is a bi-valued directed graph under construction or analysis.
// Build with New and AddArc; analyses may be run at any time. The
// out-adjacency is a compressed (CSR) index over the arc arena, built
// lazily after the last AddArc, so construction itself touches only the
// arena. Reset rewinds the graph for a new round while keeping every
// backing array.
//
// A Graph is not safe for concurrent use: even read-style analyses may
// (re)build the adjacency index.
type Graph struct {
	n    int
	arcs []Arc
	// CSR out-adjacency over arcs, valid while csrOK: the arcs leaving v
	// are outArcs[outStart[v]:outStart[v+1]].
	outStart []int32
	outArcs  []int32
	csrOK    bool
}

// New returns an empty bi-valued graph with n nodes (0 … n−1).
func New(n int) *Graph {
	return &Graph{n: n}
}

// Reset rewinds g to an empty graph with n nodes, retaining the arc arena
// and adjacency backing arrays for reuse.
func (g *Graph) Reset(n int) {
	g.n = n
	g.arcs = g.arcs[:0]
	g.csrOK = false
}

// Reserve grows the arc arena's capacity to hold at least m arcs, so a
// build loop with a known arc count performs a single allocation at most.
// Growth at least doubles the capacity: a graph rebuilt round after round
// with a slowly rising arc count (the K-Iter expansion) reallocates its
// arena O(log m) times instead of once per round.
func (g *Graph) Reserve(m int) {
	if cap(g.arcs) < m {
		arcs := make([]Arc, len(g.arcs), max(m, 2*cap(g.arcs)))
		copy(arcs, g.arcs)
		g.arcs = arcs
	}
}

// AddArc appends an arc from → to with cost l and exact time h, returning
// its arc index.
func (g *Graph) AddArc(from, to int, l int64, h rat.Rat) int {
	return g.AddArcHF(from, to, l, h, h.Float())
}

// AddArcHF is AddArc for callers that already hold the float64 rendering
// of h (e.g. when replaying a cached arc block), skipping the conversion.
func (g *Graph) AddArcHF(from, to int, l int64, h rat.Rat, hf float64) int {
	id := len(g.arcs)
	g.arcs = append(g.arcs, Arc{From: from, To: to, L: l, H: h, HF: hf})
	g.csrOK = false
	return id
}

// ensureCSR (re)builds the out-adjacency index by counting sort over the
// arc arena, reusing the index arrays.
func (g *Graph) ensureCSR() {
	if g.csrOK {
		return
	}
	g.outStart = grow(g.outStart, g.n+1)
	clear(g.outStart)
	for i := range g.arcs {
		g.outStart[g.arcs[i].From+1]++
	}
	for v := 0; v < g.n; v++ {
		g.outStart[v+1] += g.outStart[v]
	}
	g.outArcs = grow(g.outArcs, len(g.arcs))
	// outStart is consumed as a running cursor and restored by the final
	// shift-down, the standard two-pass CSR construction.
	for i := range g.arcs {
		from := g.arcs[i].From
		g.outArcs[g.outStart[from]] = int32(i)
		g.outStart[from]++
	}
	for v := g.n; v > 0; v-- {
		g.outStart[v] = g.outStart[v-1]
	}
	g.outStart[0] = 0
	g.csrOK = true
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return g.n }

// NumArcs returns the arc count.
func (g *Graph) NumArcs() int { return len(g.arcs) }

// Arc returns the arc with the given index. The pointer aliases graph
// storage and must not be mutated.
func (g *Graph) Arc(i int) *Arc { return &g.arcs[i] }

// Out returns the indices of arcs leaving v. The slice aliases the
// adjacency index and is invalidated by the next AddArc or Reset.
func (g *Graph) Out(v int) []int32 {
	g.ensureCSR()
	return g.outArcs[g.outStart[v]:g.outStart[v+1]]
}

// outDeg returns the out-degree of v (the CSR must be current).
func (g *Graph) outDeg(v int) int32 {
	return g.outStart[v+1] - g.outStart[v]
}

// CycleLH sums the cost and exact time of the given arc sequence.
func (g *Graph) CycleLH(arcIdx []int) (l int64, h rat.Rat) {
	for _, ai := range arcIdx {
		a := &g.arcs[ai]
		l += a.L
		h = h.Add(a.H)
	}
	return l, h
}

// CycleRatio returns the exact cost-to-time ratio of the circuit given as
// a sequence of arc indices. The circuit's time must be positive.
func (g *Graph) CycleRatio(arcIdx []int) (rat.Rat, error) {
	l, h := g.CycleLH(arcIdx)
	if h.Sign() <= 0 {
		return rat.Rat{}, &DeadlockError{CycleArcs: append([]int(nil), arcIdx...), L: l, H: h}
	}
	return rat.FromInt(l).Div(h), nil
}

// Result is the outcome of an MCRP resolution.
type Result struct {
	// Ratio is the exact maximum cost-to-time ratio λ.
	Ratio rat.Rat
	// CycleArcs is a critical circuit as a sequence of arc indices, in
	// traversal order (the head of arc i is the tail of arc i+1, wrapping).
	CycleArcs []int
	// CycleNodes is the corresponding node sequence (same length).
	CycleNodes []int
	// Certified reports whether the exact certification pass ran.
	Certified bool
	// Iterations counts Howard policy-improvement rounds.
	Iterations int
	// Refinements counts exact certification rounds that found a strictly
	// better circuit than the float candidate.
	Refinements int
}

// ErrNoCycle is returned when the graph has no circuit at all (the
// scheduling problem is unconstrained; throughput is limited only by
// individual tasks).
var ErrNoCycle = errors.New("mcr: graph has no circuit")

// DeadlockError reports a circuit whose total time H(c) is ≤ 0 while its
// total cost is positive (or H(c) < 0 outright): no finite period satisfies
// the cycle's constraints, i.e. the schedule is infeasible for this graph.
type DeadlockError struct {
	CycleArcs  []int
	CycleNodes []int
	L          int64
	H          rat.Rat
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("mcr: infeasible circuit (L=%d, H=%s over %d arcs)", e.L, e.H, len(e.CycleArcs))
}

// nodesOfCycle recovers the node sequence from an arc sequence.
func (g *Graph) nodesOfCycle(arcIdx []int) []int {
	nodes := make([]int, len(arcIdx))
	for i, ai := range arcIdx {
		nodes[i] = g.arcs[ai].From
	}
	return nodes
}

// infeasibleCycle reports whether a circuit with cost l and time h admits
// no positive finite period: Ω·h ≥ l has no solution Ω > 0.
func infeasibleCycle(l int64, h rat.Rat) bool {
	if h.Sign() < 0 {
		return true // Ω ≤ l/h < 0
	}
	if h.Sign() == 0 && l > 0 {
		return true // 0 ≥ l > 0
	}
	return false
}

// SCCs returns the strongly connected components of the graph (Tarjan,
// iterative). Components are returned in reverse topological order; each
// component lists its nodes.
func (g *Graph) SCCs() [][]int {
	const unvisited = -1
	index := make([]int, g.n)
	low := make([]int, g.n)
	onStack := make([]bool, g.n)
	for i := range index {
		index[i] = unvisited
	}
	var (
		stack  []int
		comps  [][]int
		cnt    int
		frames []frame
	)
	for root := 0; root < g.n; root++ {
		if index[root] != unvisited {
			continue
		}
		frames = append(frames[:0], frame{v: root})
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v := f.v
			if f.ai == 0 {
				index[v] = cnt
				low[v] = cnt
				cnt++
				stack = append(stack, v)
				onStack[v] = true
			}
			advanced := false
			out := g.Out(v)
			for f.ai < len(out) {
				w := g.arcs[out[f.ai]].To
				f.ai++
				if index[w] == unvisited {
					frames = append(frames, frame{v: w})
					advanced = true
					break
				}
				if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
			}
			if advanced {
				continue
			}
			// post-visit
			if low[v] == index[v] {
				var comp []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				comps = append(comps, comp)
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
		}
	}
	return comps
}

type frame struct {
	v  int
	ai int
}
