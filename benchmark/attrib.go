package main

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"time"

	"kiter/internal/csdf"
	"kiter/internal/kperiodic"
	"kiter/internal/mcr"
	"kiter/internal/sdf3x"
	"kiter/internal/sweep"
	"kiter/internal/symbexec"
)

// attributionVariants graphs per base are analyzed by each solver layer.
const attributionVariants = 4

// symbolicCap bounds each symbolic-execution run of the attribution; the
// Table 2 stand-ins run for up to a second before the engine's race would
// have cancelled them.
const symbolicCap = 100 * time.Millisecond

// attributionGraphs returns attributionVariants graphs of each of the
// workload's bases: cold variants for the analyze bases, scenarios of a
// sweep for the sweep bases.
func attributionGraphs(wl *workload) ([]*csdf.Graph, error) {
	var out []*csdf.Graph
	for _, b := range wl.bases {
		for i := range uint64(attributionVariants) {
			g, err := sdf3x.ReadJSON(bytes.NewReader(b.render(warmVariants + 1 + wl.coldOffset + i)))
			if err != nil {
				return nil, err
			}
			out = append(out, g)
		}
	}
	for _, s := range wl.sweeps {
		spec, err := sweep.ParseSpec(s.render(0))
		if err != nil {
			return nil, err
		}
		x, err := sweep.Compile(spec, false)
		if err != nil {
			return nil, err
		}
		for i := range attributionVariants {
			g, err := x.Materialize(i * (x.Total() - 1) / (attributionVariants - 1))
			if err != nil {
				return nil, err
			}
			out = append(out, g)
		}
	}
	return out, nil
}

// attribute runs the solver layers on the workload's graphs, one call at a
// time outside any request path, and returns their per-layer metrics.
func attribute(ctx context.Context, wl *workload) (map[string]float64, error) {
	graphs, err := attributionGraphs(wl)
	if err != nil {
		return nil, err
	}
	var kiterMS, rounds, allocs, expandMS, periodicMS, solveMS, howard, symMS []float64
	var built, reused, periodicOptimal, exhausted float64
	var m0, m1 runtime.MemStats
	for _, g := range graphs {
		runtime.ReadMemStats(&m0)
		start := time.Now()
		res, err := kperiodic.KIterCtx(ctx, g, referenceOptions)
		d := time.Since(start)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return nil, err
		}
		kiterMS = append(kiterMS, ms(d))
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs))
		rounds = append(rounds, float64(res.Iterations))
		for _, st := range res.Trace {
			built += float64(st.ArcsBuilt)
			reused += float64(st.ArcsReused)
		}

		// The bi-valued graph at the final K, solved as a plain MCRP.
		start = time.Now()
		arcs, err := kperiodic.BivaluedGraph(g, res.K, referenceOptions)
		expandMS = append(expandMS, ms(time.Since(start)))
		if err != nil {
			return nil, err
		}
		mg := mcrGraph(arcs)
		start = time.Now()
		sol, err := mcr.Solve(mg, mcr.Options{})
		solveMS = append(solveMS, ms(time.Since(start)))
		if err != nil {
			return nil, err
		}
		howard = append(howard, float64(sol.Iterations))

		start = time.Now()
		ev, err := kperiodic.Evaluate1(g, referenceOptions)
		periodicMS = append(periodicMS, ms(time.Since(start)))
		if err == nil && ev.Period.Cmp(res.Period) == 0 {
			periodicOptimal++
		}

		sctx, cancel := context.WithTimeout(ctx, symbolicCap)
		start = time.Now()
		_, err = symbexec.RunCtx(sctx, g, symbexec.Options{})
		symMS = append(symMS, ms(time.Since(start)))
		cancel()
		if errors.Is(err, symbexec.ErrBudget) || errors.Is(err, context.DeadlineExceeded) {
			exhausted++
		}
	}
	n := float64(len(graphs))
	return map[string]float64{
		"kperiodic.kiter_ms.p50":           quantile(kiterMS, 0.5),
		"kperiodic.kiter_ms.p99":           quantile(kiterMS, 0.99),
		"kperiodic.rounds.mean":            mean(rounds),
		"kperiodic.arcs_reused_ratio":      ratio(reused, built+reused),
		"kperiodic.kiter_allocs":           mean(allocs),
		"kperiodic.expand_ms.p50":          quantile(expandMS, 0.5),
		"kperiodic.periodic_ms.p50":        quantile(periodicMS, 0.5),
		"kperiodic.periodic_optimal_ratio": periodicOptimal / n,
		"mcr.solve_ms.p50":                 quantile(solveMS, 0.5),
		"mcr.howard_iters.mean":            mean(howard),
		"symbexec.run_ms.p50":              quantile(symMS, 0.5),
		"symbexec.run_ms.p99":              quantile(symMS, 0.99),
		"symbexec.budget_exhausted":        exhausted,
	}, nil
}

// mcrGraph numbers the bi-valued graph's phase nodes and loads its arcs.
func mcrGraph(arcs []kperiodic.BivaluedArc) *mcr.Graph {
	ids := map[kperiodic.PhaseRef]int{}
	node := func(p kperiodic.PhaseRef) int {
		id, ok := ids[p]
		if !ok {
			id = len(ids)
			ids[p] = id
		}
		return id
	}
	for _, a := range arcs {
		node(a.From)
		node(a.To)
	}
	g := mcr.New(len(ids))
	g.Reserve(len(arcs))
	for _, a := range arcs {
		g.AddArc(ids[a.From], ids[a.To], a.L, a.H)
	}
	return g
}
