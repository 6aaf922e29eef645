package mcr

import (
	"context"
	"fmt"
	"math"

	"kiter/internal/rat"
)

// certifyLoop upgrades an uncertified candidate to an exact result. Given
// the candidate circuit's exact ratio λ, an exact Bellman–Ford pass
// (positiveCycle) looks for a circuit with L(c) − λ·H(c) > 0. None found
// certifies λ as the maximum ratio; otherwise the found circuit's exact
// ratio strictly exceeds λ (or proves infeasibility) and becomes the new
// candidate. The pass runs in int64 whenever the scaled weights fit, and
// finds the same circuit either way, so the sequence of candidates, and
// the result, do not depend on which arithmetic certified them.
func (s *Solver) certifyLoop(ctx context.Context, g *Graph, cand Result) (Result, error) {
	res := cand
	for {
		better, err := s.positiveCycle(ctx, g, res.Ratio)
		if err != nil {
			return Result{}, err
		}
		if better == nil {
			res.Certified = true
			return res, nil
		}
		ratio, err := g.CycleRatio(better)
		if err != nil {
			return Result{}, err // infeasible circuit uncovered
		}
		if ratio.Cmp(res.Ratio) <= 0 {
			// Cannot happen for a genuinely positive circuit; guards
			// against an internal extraction bug rather than looping.
			return Result{}, fmt.Errorf("mcr: certification regressed (%s ≤ %s)", ratio, res.Ratio)
		}
		res.Ratio = ratio
		res.CycleArcs = better
		res.CycleNodes = g.nodesOfCycle(better)
		res.Refinements++
	}
}

// RefineCtx upgrades an uncertified candidate result (e.g. from Solve
// with SkipCertify) to an exactly certified one, re-using the candidate
// circuit as the starting point of the certification loop and the
// solver's certification scratch. The context is polled once per exact
// relaxation round.
func (s *Solver) RefineCtx(ctx context.Context, g *Graph, cand Result) (Result, error) {
	if cand.Certified {
		return cand, nil
	}
	return s.certifyLoop(ctx, g, cand)
}

// Certify checks in exact arithmetic that no circuit of g has a
// cost-to-time ratio exceeding lambda (nor an infeasible time sum). It
// returns nil when lambda is an upper bound, and otherwise the arc indices
// of a violating circuit.
func (g *Graph) Certify(lambda rat.Rat) ([]int, error) {
	return NewSolver().positiveCycle(context.Background(), g, lambda)
}

// positiveCycle runs exact Bellman–Ford longest-path relaxation with arc
// weights w(e) = L(e) − λ·H(e) from an implicit super-source (all
// distances start at 0). It returns an elementary circuit with positive
// total weight, or nil when none exists. The context is polled once per
// relaxation round.
//
// The pass runs on the integers W(e) = r·M·w(e), where λ = p/r in lowest
// terms and M is the lcm of the arcs' H denominators (positiveCycleInt).
// Scaling every weight by one positive constant scales every distance by
// it too, so each comparison, predecessor and the extracted circuit are
// exactly those of the rational pass. Only when λ or an H is held in big
// form, or a weight or a distance leaves int64, does the pass run in
// rat.Rat instead (positiveCycleRat).
func (s *Solver) positiveCycle(ctx context.Context, g *Graph, lambda rat.Rat) ([]int, error) {
	if g.n == 0 || len(g.arcs) == 0 {
		return nil, nil
	}
	if s.scaleWeights(g, lambda) {
		if arcs, ok, err := s.positiveCycleInt(ctx, g); ok || err != nil {
			return arcs, err
		}
	}
	return s.positiveCycleRat(ctx, g, lambda)
}

// relaxArc is an arc as the integer relaxation reads it: endpoints and
// the scaled weight W(e), packed so a round streams 16 bytes per arc.
type relaxArc struct {
	from, to int32
	w        int64
}

// scaleWeights fills s.rel with the arcs of g and their integer weights
// W(e) = L(e)·r·M − p·h·(M/d) = r·M·(L(e) − λ·H(e)), for λ = p/r and
// H(e) = h/d in lowest terms and M the lcm of every d (a zero H counts as
// 1). It reports false when λ or an H is in big form or any product or
// sum leaves int64.
func (s *Solver) scaleWeights(g *Graph, lambda rat.Rat) bool {
	p, r, ok := lambda.Small()
	if !ok {
		return false
	}
	var m int64 = 1
	for i := range g.arcs {
		_, d, ok := g.arcs[i].H.Small()
		if !ok {
			return false
		}
		if m%d != 0 {
			if m, ok = rat.Lcm(m, d); !ok {
				return false
			}
		}
	}
	rm, ok := rat.MulCheck(r, m)
	if !ok {
		return false
	}
	s.rel = grow(s.rel, len(g.arcs))
	for i := range g.arcs {
		a := &g.arcs[i]
		h, d, _ := a.H.Small()
		lw, ok1 := rat.MulCheck(a.L, rm)
		// −p is exact: Small never returns a numerator of MinInt64.
		ph, ok2 := rat.MulCheck(-p, h)
		hw, ok3 := rat.MulCheck(ph, m/d)
		w, ok4 := rat.AddCheck(lw, hw)
		if !(ok1 && ok2 && ok3 && ok4) {
			return false
		}
		s.rel[i] = relaxArc{from: int32(a.From), to: int32(a.To), w: w}
	}
	return true
}

// positiveCycleInt is positiveCycle over the integer weights scaleWeights
// left in s.rel. Distances start at 0 and never fall, so they can only
// overflow upwards: a relaxation that would pass MaxInt64 makes the pass
// decline (ok = false), and the caller reruns it in rat.Rat. No bound on
// the distances can be proved up front, because a round of Gauss–Seidel
// relaxation extends a walk by up to |E| arcs and a positive circuit
// pushes the distances on it past any simple-path sum.
func (s *Solver) positiveCycleInt(ctx context.Context, g *Graph) (arcs []int, ok bool, err error) {
	n := g.n
	s.idist = grow(s.idist, n)
	clear(s.idist)
	s.pred = grow(s.pred, n)
	for i := range s.pred {
		s.pred[i] = -1
	}
	dist, pred, rel := s.idist, s.pred, s.rel
	lastUpdated := -1
	for round := 0; round <= n; round++ {
		if err := ctx.Err(); err != nil {
			return nil, true, err
		}
		updated := false
		for i := range rel {
			a := &rel[i]
			d := dist[a.from]
			if a.w > 0 && d > math.MaxInt64-a.w {
				return nil, false, nil
			}
			if cand := d + a.w; cand > dist[a.to] {
				dist[a.to] = cand
				pred[a.to] = int32(i)
				updated = true
				lastUpdated = int(a.to)
			}
		}
		if !updated {
			return nil, true, nil
		}
	}
	arcs, err = g.predCircuit(pred, lastUpdated)
	return arcs, true, err
}

// positiveCycleRat is positiveCycle in rat.Rat arithmetic: the path for
// weights beyond int64, and the reference the integer pass is tested
// against.
func (s *Solver) positiveCycleRat(ctx context.Context, g *Graph, lambda rat.Rat) ([]int, error) {
	n := g.n
	s.w = grow(s.w, len(g.arcs))
	for i := range g.arcs {
		a := &g.arcs[i]
		s.w[i] = rat.FromInt(a.L).Sub(lambda.Mul(a.H))
	}
	s.dist = grow(s.dist, n)
	clear(s.dist)
	s.pred = grow(s.pred, n)
	for i := range s.pred {
		s.pred[i] = -1
	}
	dist, pred := s.dist, s.pred
	lastUpdated := -1
	for round := 0; round <= n; round++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		updated := false
		for i := range g.arcs {
			a := &g.arcs[i]
			cand := dist[a.From].Add(s.w[i])
			if cand.Cmp(dist[a.To]) > 0 {
				dist[a.To] = cand
				pred[a.To] = int32(i)
				updated = true
				lastUpdated = a.To
			}
		}
		if !updated {
			return nil, nil
		}
	}
	return g.predCircuit(pred, lastUpdated)
}

// predCircuit extracts the positive circuit proven by a relaxation in
// round n of Bellman–Ford, where last is the node it updated last: walking
// n predecessors back from last enters the circuit, which is then cut out
// and returned as arc indices in traversal order.
func (g *Graph) predCircuit(pred []int32, last int) ([]int, error) {
	n := g.n
	v := last
	for i := 0; i < n; i++ {
		v = g.arcs[pred[v]].From
	}
	// v is on a positive circuit; collect arcs until v repeats.
	var arcsRev []int
	u := v
	for {
		ai := pred[u]
		arcsRev = append(arcsRev, int(ai))
		u = g.arcs[ai].From
		if u == v {
			break
		}
		if len(arcsRev) > n {
			return nil, fmt.Errorf("mcr: predecessor walk did not close")
		}
	}
	// Reverse into traversal order.
	arcs := make([]int, len(arcsRev))
	for i, ai := range arcsRev {
		arcs[len(arcsRev)-1-i] = ai
	}
	return arcs, nil
}

// SolveExact computes the maximum cost-to-time ratio without the float64
// fast path: it starts from an arbitrary circuit and applies the exact
// refinement loop only. Slower than Solve but free of floating-point
// behaviour entirely; used for cross-checking.
func SolveExact(g *Graph) (Result, error) {
	s := NewSolver()
	if !s.trim(g) {
		return Result{}, ErrNoCycle
	}
	start, err := g.anyCycle(s.alive)
	if err != nil {
		return Result{}, err
	}
	l, h := g.CycleLH(start)
	if infeasibleCycle(l, h) {
		return Result{}, &DeadlockError{CycleArcs: start, CycleNodes: g.nodesOfCycle(start), L: l, H: h}
	}
	var ratio rat.Rat
	if h.Sign() > 0 {
		ratio = rat.FromInt(l).Div(h)
	} else {
		// Degenerate 0/0 start: use ratio 0 as the initial bound; the
		// refinement loop will find any circuit with positive ratio.
		ratio = rat.Rat{}
	}
	cand := Result{Ratio: ratio, CycleArcs: start, CycleNodes: g.nodesOfCycle(start)}
	res, err := s.certifyLoop(context.Background(), g, cand)
	if err != nil {
		return Result{}, err
	}
	if res.Ratio.Sign() == 0 && h.Sign() == 0 {
		// No circuit with positive time: the instance only has degenerate
		// circuits; report the starting circuit with ratio 0.
		res.CycleArcs = start
		res.CycleNodes = g.nodesOfCycle(start)
	}
	return res, nil
}

// anyCycle returns some circuit of the alive subgraph by following first
// out-arcs until a node repeats.
func (g *Graph) anyCycle(alive []bool) ([]int, error) {
	state := make([]int8, g.n)
	next := make([]int32, g.n)
	for v := range next {
		next[v] = -1
	}
	for v := 0; v < g.n; v++ {
		if !alive[v] {
			continue
		}
		for _, ai := range g.Out(v) {
			if alive[g.arcs[ai].To] {
				next[v] = ai
				break
			}
		}
	}
	for s := 0; s < g.n; s++ {
		if !alive[s] || state[s] != 0 {
			continue
		}
		var path []int // nodes
		v := s
		for state[v] == 0 {
			state[v] = 1
			path = append(path, v)
			v = g.arcs[next[v]].To
		}
		if state[v] == 1 {
			start := 0
			for path[start] != v {
				start++
			}
			cyc := path[start:]
			arcs := make([]int, len(cyc))
			for i, u := range cyc {
				arcs[i] = int(next[u])
			}
			return arcs, nil
		}
		for _, u := range path {
			state[u] = 2
		}
	}
	return nil, ErrNoCycle
}
