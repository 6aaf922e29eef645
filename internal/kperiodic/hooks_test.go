package kperiodic

import (
	"context"

	"kiter/internal/csdf"
	"kiter/internal/mcr"
	"kiter/internal/rat"
)

// Hooks for the external test package, which can import gen (a white-box
// test cannot: gen imports kperiodic).

// freshBuilder returns a builder for (g, q, K) that no earlier graph used.
func freshBuilder(g *csdf.Graph, q, K []int64, opt Options) (*builder, error) {
	b := new(builder)
	return b, b.reset(g, q, K, opt)
}

// FreshKIterCtx is KIterCtx on a workspace no earlier solve used: the
// reference a pooled run must match exactly.
func FreshKIterCtx(ctx context.Context, g *csdf.Graph, opt Options) (*KIterResult, error) {
	q, err := g.RepetitionVector()
	if err != nil {
		return nil, err
	}
	return new(workspace).kiter(ctx, g, q, ones(g.NumTasks()), opt)
}

// KIterFrom is KIter started from the periodicity vector start instead of
// all ones.
func KIterFrom(g *csdf.Graph, start []int64, opt Options) (*KIterResult, error) {
	q, err := g.RepetitionVector()
	if err != nil {
		return nil, err
	}
	return new(workspace).kiter(context.Background(), g, q, start, opt)
}

// FreshScheduleK is ScheduleK on a workspace no earlier solve used.
func FreshScheduleK(g *csdf.Graph, K []int64, opt Options) (*Schedule, error) {
	q, err := g.RepetitionVector()
	if err != nil {
		return nil, err
	}
	return new(workspace).scheduleK(context.Background(), g, q, K, opt)
}

// FreshBivaluedGraph is BivaluedGraph on a workspace no earlier solve used.
func FreshBivaluedGraph(g *csdf.Graph, K []int64, opt Options) ([]BivaluedArc, error) {
	q, err := g.RepetitionVector()
	if err != nil {
		return nil, err
	}
	return new(workspace).bivaluedGraph(g, q, K, opt)
}

// ReusedKIter returns KIterCtx on one workspace carried from call to call,
// the pool's reuse made deterministic: sync.Pool may hand a call a new
// workspace at any time, so a test of stale state cannot rely on it alone.
func ReusedKIter() func(context.Context, *csdf.Graph, Options) (*KIterResult, error) {
	w := new(workspace)
	return func(ctx context.Context, g *csdf.Graph, opt Options) (*KIterResult, error) {
		q, err := g.RepetitionVector()
		if err != nil {
			return nil, err
		}
		return w.kiter(ctx, g, q, ones(g.NumTasks()), opt)
	}
}

// WholeGraphMCR solves the whole bi-valued graph of (g, K) as one exactly
// certified MCRP, the reference the per-component solve must match: its
// maximum ratio, or the solver's error (mcr.ErrNoCycle, *mcr.DeadlockError).
func WholeGraphMCR(g *csdf.Graph, K []int64, opt Options) (rat.Rat, error) {
	q, err := g.RepetitionVector()
	if err != nil {
		return rat.Rat{}, err
	}
	b, err := freshBuilder(g, q, K, opt)
	if err != nil {
		return rat.Rat{}, err
	}
	if err := b.build(); err != nil {
		return rat.Rat{}, err
	}
	res, err := mcr.Solve(b.mg, mcr.Options{})
	return res.Ratio, err
}
