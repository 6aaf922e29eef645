package mcr

import (
	"context"
	"fmt"

	"kiter/internal/rat"
)

// certifyLoop upgrades an uncertified candidate to an exact result. Given
// the candidate circuit's exact ratio λ, an exact Bellman–Ford pass looks
// for a circuit with L(c) − λ·H(c) > 0. None found certifies λ as the
// maximum ratio; otherwise the found circuit's exact ratio strictly
// exceeds λ (or proves infeasibility) and becomes the new candidate.
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

// Refine upgrades an uncertified candidate result (e.g. from Solve with
// SkipCertify) to an exactly certified one, re-using the candidate circuit
// as the starting point of the certification loop.
func Refine(g *Graph, cand Result) (Result, error) {
	return NewSolver().RefineCtx(context.Background(), g, cand)
}

// RefineCtx is Refine with cancellation, polled once per exact relaxation
// round.
func RefineCtx(ctx context.Context, g *Graph, cand Result) (Result, error) {
	return NewSolver().RefineCtx(ctx, g, cand)
}

// Refine is the Solver equivalent of the package-level Refine, reusing
// the solver's certification scratch.
func (s *Solver) Refine(g *Graph, cand Result) (Result, error) {
	return s.RefineCtx(context.Background(), g, cand)
}

// RefineCtx upgrades cand to an exactly certified result with
// cancellation, reusing the solver's certification scratch.
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
func (s *Solver) positiveCycle(ctx context.Context, g *Graph, lambda rat.Rat) ([]int, error) {
	n := g.n
	if n == 0 || len(g.arcs) == 0 {
		return nil, nil
	}
	s.w = grow(s.w, len(g.arcs))
	for i := range g.arcs {
		a := &g.arcs[i]
		s.w[i] = rat.FromInt(a.L).Sub(lambda.Mul(a.H))
	}
	s.dist = grow(s.dist, n)
	for i := range s.dist {
		s.dist[i] = rat.Rat{}
	}
	s.pred = grow(s.pred, n)
	for i := range s.pred {
		s.pred[i] = -1
	}
	dist, pred := s.dist, s.pred
	var lastUpdated int = -1
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
	// A relaxation succeeded in round n: a positive circuit exists. Walk
	// predecessors n steps to enter the circuit, then cut it out.
	v := lastUpdated
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
