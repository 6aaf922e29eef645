package mcr

import (
	"context"
	"math"

	"kiter/internal/rat"
	"kiter/internal/telemetry"
)

// Options tunes Solve.
type Options struct {
	// SkipCertify disables the exact certification pass; the result is
	// then the float64 Howard candidate (Certified=false). Used by
	// intermediate K-Iter rounds and by throughput-shape benchmarks.
	SkipCertify bool
	// MaxHowardRounds bounds policy-improvement rounds (0 = default).
	// Exceeding the bound is harmless when certification is enabled: the
	// certification loop repairs any suboptimal candidate.
	MaxHowardRounds int
	// InitPolicy, when non-nil, seeds Howard's initial policy:
	// InitPolicy[v] is the index of an arc leaving v. Entries that are
	// negative, out of range, or name an arc not leaving v or leading out
	// of the cyclic core fall back to v's first arc into the core. K-Iter
	// passes the previous round's final policy here, mapped onto the
	// rebuilt graph, so each round starts close to its optimum.
	InitPolicy []int32
}

const defaultHowardRounds = 10000

// relEps is the relative tolerance for float64 comparisons in the Howard
// fast path. Exactness is restored by certification.
const relEps = 1e-12

func gtEps(a, b float64) bool {
	if a <= b { // the common case in Howard's scans: equal values
		return false
	}
	diff := a - b
	scale := math.Abs(a) + math.Abs(b) + 1
	return diff > relEps*scale
}

// Solver runs MCRP resolutions while holding every O(n)/O(m) working array
// for reuse: the cyclic-core trim state, the Howard policy and value
// vectors, the policy-circuit traversal stacks, and the exact
// certification weights. A Solver kept across the rounds of one K-Iter
// run makes each round's resolution allocation-free apart from the
// returned Result. The zero value is ready to use; a Solver must not be
// shared between goroutines.
type Solver struct {
	// cyclic-core trim
	alive   []bool
	outDeg  []int32
	work    []int32
	inStart []int32
	inArcs  []int32
	// Howard policy iteration
	pol    []int32
	lambda []float64
	val    []float64
	color  []int8
	order  []int32
	cycle  []int // current policy circuit, arc indices
	best   []int // best circuit of the latest value-determination pass
	// exact certification: the integer pass, then the rational one
	rel   []relaxArc
	idist []int64
	w     []rat.Rat
	dist  []rat.Rat
	pred  []int32
}

// NewSolver returns an empty Solver.
func NewSolver() *Solver { return &Solver{} }

// Solve computes the maximum cost-to-time ratio of g and a critical
// circuit. It returns ErrNoCycle for acyclic graphs and a *DeadlockError
// when some circuit admits no finite positive period.
func Solve(g *Graph, opt Options) (Result, error) {
	return NewSolver().SolveCtx(context.Background(), g, opt)
}

// Solve is the Solver equivalent of the package-level Solve, reusing the
// solver's scratch state.
func (s *Solver) Solve(g *Graph, opt Options) (Result, error) {
	return s.SolveCtx(context.Background(), g, opt)
}

// SolveCtx resolves the MCRP on g with cancellation, reusing the solver's
// scratch state. The context is polled between Howard rounds and once per
// certification relaxation round, so a caller abandoning a large
// resolution gets control back after at most O(|E|) work; a solve that
// converges in one round, such as that of a small strongly connected
// component, never polls before certification. When the context carries
// a trace span, the Howard iteration count and problem size accumulate
// onto it — the per-solve detail a flame graph needs to tell "many cheap
// policy rounds" from "few expensive ones".
func (s *Solver) SolveCtx(ctx context.Context, g *Graph, opt Options) (Result, error) {
	s.pol = s.pol[:0]
	if !s.trim(g) {
		return Result{}, ErrNoCycle
	}
	res, err := s.howard(ctx, g, opt)
	if err != nil {
		return Result{}, err
	}
	if span := telemetry.FromContext(ctx); span != nil {
		span.AddInt("howardIterations", int64(res.Iterations))
		span.SetInt("mcrNodes", int64(g.NumNodes()))
		span.SetInt("mcrArcs", int64(g.NumArcs()))
	}
	if opt.SkipCertify {
		return res, nil
	}
	return s.certifyLoop(ctx, g, res)
}

// Policy returns the final policy of the latest Howard run: Policy()[v] is
// the index of the arc node v follows, −1 for nodes outside the cyclic
// core. It is empty when the latest solve found no circuit. The slice
// aliases solver scratch and is overwritten by the next solve.
func (s *Solver) Policy() []int32 { return s.pol }

// trim computes the cyclic core of g into s.alive — the nodes from which a
// circuit is reachable, every one keeping at least one outgoing arc into
// the core — and reports whether any node survives.
func (s *Solver) trim(g *Graph) bool {
	g.ensureCSR()
	n := g.n
	s.alive = grow(s.alive, n)
	s.outDeg = grow(s.outDeg, n)
	s.work = s.work[:0]
	for v := 0; v < n; v++ {
		s.alive[v] = true
		s.outDeg[v] = g.outDeg(v)
		if s.outDeg[v] == 0 {
			s.work = append(s.work, int32(v))
		}
	}
	// The in-adjacency is built lazily, only when something trims.
	inBuilt := false
	for len(s.work) > 0 {
		if !inBuilt {
			s.buildIn(g)
			inBuilt = true
		}
		v := int(s.work[len(s.work)-1])
		s.work = s.work[:len(s.work)-1]
		if !s.alive[v] {
			continue
		}
		s.alive[v] = false
		for _, ai := range s.inArcs[s.inStart[v]:s.inStart[v+1]] {
			u := g.arcs[ai].From
			if !s.alive[u] {
				continue
			}
			s.outDeg[u]--
			if s.outDeg[u] == 0 {
				s.work = append(s.work, int32(u))
			}
		}
	}
	for v := 0; v < n; v++ {
		if s.alive[v] {
			return true
		}
	}
	return false
}

// buildIn builds the CSR in-adjacency of g into the solver's scratch.
func (s *Solver) buildIn(g *Graph) {
	s.inStart = grow(s.inStart, g.n+1)
	clear(s.inStart)
	for i := range g.arcs {
		s.inStart[g.arcs[i].To+1]++
	}
	for v := 0; v < g.n; v++ {
		s.inStart[v+1] += s.inStart[v]
	}
	s.inArcs = grow(s.inArcs, len(g.arcs))
	for i := range g.arcs {
		to := g.arcs[i].To
		s.inArcs[s.inStart[to]] = int32(i)
		s.inStart[to]++
	}
	for v := g.n; v > 0; v-- {
		s.inStart[v] = s.inStart[v-1]
	}
	s.inStart[0] = 0
}

// howard runs max-ratio policy iteration on the alive subgraph and returns
// an uncertified candidate result.
func (s *Solver) howard(ctx context.Context, g *Graph, opt Options) (Result, error) {
	maxRounds := opt.MaxHowardRounds
	if maxRounds <= 0 {
		maxRounds = defaultHowardRounds
	}
	n := g.n
	s.pol = grow(s.pol, n)
	s.lambda = grow(s.lambda, n)
	s.val = grow(s.val, n)
	init := opt.InitPolicy
	for v := 0; v < n; v++ {
		s.pol[v] = -1
		if !s.alive[v] {
			continue
		}
		if v < len(init) {
			if ai := init[v]; ai >= 0 && int(ai) < len(g.arcs) &&
				g.arcs[ai].From == v && s.alive[g.arcs[ai].To] {
				s.pol[v] = ai
				continue
			}
		}
		for _, ai := range g.Out(v) {
			if s.alive[g.arcs[ai].To] {
				s.pol[v] = ai
				break
			}
		}
	}

	rounds := 0
	for round := 0; round < maxRounds; round++ {
		if round > 0 {
			if err := ctx.Err(); err != nil {
				return Result{}, err
			}
		}
		rounds = round + 1
		if err := s.evaluatePolicy(g); err != nil {
			return Result{}, err
		}
		arcs := g.arcs
		improved := false
		// Phase A: strict λ improvement.
		for v := 0; v < n; v++ {
			if !s.alive[v] {
				continue
			}
			cur := s.pol[v]
			curL := s.lambda[arcs[cur].To]
			best, bestL := cur, curL
			for _, ai := range g.Out(v) {
				w := arcs[ai].To
				if !s.alive[w] {
					continue
				}
				if gtEps(s.lambda[w], bestL) {
					best, bestL = ai, s.lambda[w]
				}
			}
			if best != cur && gtEps(bestL, curL) {
				s.pol[v] = best
				improved = true
			}
		}
		if improved {
			continue
		}
		// Phase B: value improvement at equal λ. Only an actual change of
		// policy counts as an improvement: the entry node of a policy
		// circuit has val = 0 while its closing arc carries the circuit's
		// float rounding defect, so that arc can "beat" val[v] by more
		// than the tolerance forever without the policy ever moving.
		for v := 0; v < n; v++ {
			if !s.alive[v] {
				continue
			}
			lv := s.lambda[v]
			cur := s.val[v]
			pol := s.pol[v]
			for _, ai := range g.Out(v) {
				a := &arcs[ai]
				w := a.To
				if !s.alive[w] || gtEps(lv, s.lambda[w]) || gtEps(s.lambda[w], lv) {
					continue
				}
				cand := float64(a.L) - lv*a.HF + s.val[w]
				if gtEps(cand, cur) {
					pol = ai
					cur = cand
				}
			}
			if pol != s.pol[v] {
				s.pol[v] = pol
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	if len(s.best) == 0 {
		return Result{}, ErrNoCycle
	}
	// One allocation backs both circuit slices: a caller solving many
	// small graphs, one per strongly connected component, keeps every
	// answer.
	k := len(s.best)
	circuit := make([]int, 2*k)
	res := Result{
		CycleArcs:  circuit[:k:k],
		CycleNodes: circuit[k:],
		Iterations: rounds,
	}
	for i, ai := range s.best {
		res.CycleArcs[i], res.CycleNodes[i] = ai, g.arcs[ai].From
	}
	ratio, err := g.CycleRatio(res.CycleArcs)
	if err != nil {
		return Result{}, err
	}
	res.Ratio = ratio
	return res, nil
}

// evaluatePolicy performs the value-determination step: it finds the
// circuits of the policy's functional graph, computes their exact ratios
// (reporting infeasible circuits as DeadlockError), assigns λ and a
// potential to every alive node, and leaves the best policy circuit in
// s.best.
func (s *Solver) evaluatePolicy(g *Graph) error {
	const (
		white = 0 // unvisited
		grey  = 1 // on the current path
		black = 2 // finished
	)
	n := g.n
	s.color = grow(s.color, n)
	for i := range s.color {
		s.color[i] = white
	}
	s.best = s.best[:0]
	bestRatio := math.Inf(-1)
	arcs := g.arcs
	for start := 0; start < n; start++ {
		if !s.alive[start] || s.color[start] != white {
			continue
		}
		s.order = s.order[:0]
		v := start
		for s.alive[v] && s.color[v] == white {
			s.color[v] = grey
			s.order = append(s.order, int32(v))
			v = arcs[s.pol[v]].To
		}
		if s.color[v] == grey {
			// Found a new policy circuit: the suffix of order from v.
			first := 0
			for int(s.order[first]) != v {
				first++
			}
			cyc := s.order[first:]
			s.cycle = s.cycle[:0]
			for _, u := range cyc {
				s.cycle = append(s.cycle, int(s.pol[u]))
			}
			l, h := g.CycleLH(s.cycle)
			if infeasibleCycle(l, h) {
				nodes := make([]int, len(cyc))
				for i, u := range cyc {
					nodes[i] = int(u)
				}
				return &DeadlockError{
					CycleArcs:  append([]int(nil), s.cycle...),
					CycleNodes: nodes,
					L:          l,
					H:          h,
				}
			}
			var lam float64
			if h.Sign() == 0 {
				// l == 0 too: degenerate circuit, constrains nothing.
				lam = math.Inf(-1)
			} else {
				lam = rat.FromInt(l).Div(h).Float()
			}
			if lam > bestRatio {
				bestRatio = lam
				s.best = append(s.best[:0], s.cycle...)
			}
			// Assign λ and potentials around the circuit: fix val of the
			// entry node to 0 and walk the circuit backwards so that
			// val[u] = L − λH + val[next] holds on every arc except the
			// closing one (whose defect is the circuit's zero-sum).
			for _, u := range cyc {
				s.lambda[u] = lam
			}
			s.val[v] = 0
			if !math.IsInf(lam, -1) {
				for i := len(cyc) - 1; i >= 1; i-- {
					u := cyc[i]
					a := &arcs[s.pol[u]]
					s.val[u] = float64(a.L) - lam*a.HF + s.val[a.To]
				}
			} else {
				for _, u := range cyc {
					s.val[u] = 0
				}
			}
			for _, u := range cyc {
				s.color[u] = black
			}
		}
		// Unwind the tree part of the path in reverse, inheriting from the
		// policy successor (already black).
		for i := len(s.order) - 1; i >= 0; i-- {
			u := int(s.order[i])
			if s.color[u] == black {
				continue
			}
			a := &arcs[s.pol[u]]
			s.lambda[u] = s.lambda[a.To]
			if math.IsInf(s.lambda[u], -1) {
				s.val[u] = 0
			} else {
				s.val[u] = float64(a.L) - s.lambda[u]*a.HF + s.val[a.To]
			}
			s.color[u] = black
		}
	}
	if len(s.best) == 0 {
		return ErrNoCycle
	}
	return nil
}

// grow returns b resliced to length n, reallocating when its capacity
// falls short. A reallocation at least doubles the capacity, so scratch
// that follows a growing graph round after round — the K-Iter expansion —
// reallocates O(log n) times rather than once per round. The contents are
// unspecified; callers initialize what they read.
func grow[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n, max(n, 2*cap(b)))
	}
	return b[:n]
}
