package kperiodic

import (
	"context"
	"fmt"
	"slices"

	"kiter/internal/csdf"
	"kiter/internal/mcr"
	"kiter/internal/rat"
)

// Hooks for the external test package, which can import gen (a white-box
// test cannot: gen imports kperiodic).

// facts returns g's facts, failing with g's repetition-vector error.
func facts(g *csdf.Graph) (*csdf.Facts, error) {
	f, err := csdf.NewFacts(g)
	if err != nil {
		return nil, err
	}
	if _, err := f.Repetition(); err != nil {
		return nil, err
	}
	return f, nil
}

// freshBuilder returns a builder for (g, K) that no earlier graph used;
// q must be g's repetition vector.
func freshBuilder(g *csdf.Graph, q, K []int64, opt Options) (*builder, error) {
	f, err := facts(g)
	if err != nil {
		return nil, err
	}
	if fq, _ := f.Repetition(); !slices.Equal(q, fq) {
		return nil, fmt.Errorf("freshBuilder: q = %v, the graph's is %v", q, fq)
	}
	b := new(builder)
	return b, b.reset(f, K, opt)
}

// FreshKIterCtx is KIterCtx on a workspace no earlier solve used: the
// reference a pooled run must match exactly.
func FreshKIterCtx(ctx context.Context, g *csdf.Graph, opt Options) (*KIterResult, error) {
	f, err := facts(g)
	if err != nil {
		return nil, err
	}
	return new(workspace).kiter(ctx, f, ones(g.NumTasks()), opt)
}

// KIterFrom is KIter started from the periodicity vector start instead of
// all ones.
func KIterFrom(g *csdf.Graph, start []int64, opt Options) (*KIterResult, error) {
	f, err := facts(g)
	if err != nil {
		return nil, err
	}
	return new(workspace).kiter(context.Background(), f, start, opt)
}

// FreshScheduleK is ScheduleK on a workspace no earlier solve used.
func FreshScheduleK(g *csdf.Graph, K []int64, opt Options) (*Schedule, error) {
	f, err := facts(g)
	if err != nil {
		return nil, err
	}
	return new(workspace).scheduleK(context.Background(), f, K, opt)
}

// FreshBivaluedGraph is BivaluedGraph on a workspace no earlier solve used.
func FreshBivaluedGraph(g *csdf.Graph, K []int64, opt Options) ([]BivaluedArc, error) {
	f, err := facts(g)
	if err != nil {
		return nil, err
	}
	return new(workspace).bivaluedGraph(f, K, opt)
}

// ReusedKIter returns KIterCtx on one workspace carried from call to call,
// the reuse made deterministic: a pooled call may get a new workspace at
// any time, so a test of stale state cannot rely on the pool alone.
func ReusedKIter() func(context.Context, *csdf.Graph, Options) (*KIterResult, error) {
	w := new(workspace)
	return func(ctx context.Context, g *csdf.Graph, opt Options) (*KIterResult, error) {
		f, err := facts(g)
		if err != nil {
			return nil, err
		}
		return w.kiter(ctx, f, ones(g.NumTasks()), opt)
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
