package engine

import (
	"context"
	"errors"

	"kiter/internal/csdf"
	"kiter/internal/faultinject"
	"kiter/internal/kperiodic"
	"kiter/internal/sched"
	"kiter/internal/sizing"
	"kiter/internal/symbexec"
	"kiter/internal/telemetry"
)

// analysisOrder fixes the execution order regardless of how the request
// listed the analyses, so that later sections reuse earlier heavyweight
// work instead of recomputing it: the symbolic section feeds the
// throughput analysis (an exact symbolic answer settles the default method),
// and the throughput section's certified periodicity vector feeds both the
// schedule and the sizing analyses.
var analysisOrder = []AnalysisKind{AnalysisSymbolic, AnalysisThroughput, AnalysisSchedule, AnalysisSizing}

// evaluate runs every requested analysis of a prepared request. Analysis
// failures land in the per-section Error fields (they are deterministic
// and cacheable); only context cancellation aborts the whole job.
func (e *Engine) evaluate(ctx context.Context, req *Request) (*Result, error) {
	// Chaos seam: "solver.entry" faults the whole job — an injected error
	// fails it, an injected panic exercises the worker-level recovery.
	if err := faultinject.Fire(faultinject.PointSolverEntry); err != nil {
		return nil, err
	}
	res := &Result{Fingerprint: req.fingerprintHint}
	if res.Fingerprint == "" {
		res.Fingerprint = req.Graph.FingerprintHex()
	}
	requested := map[AnalysisKind]bool{}
	for _, a := range req.Analyses {
		requested[a] = true
	}
	for _, a := range analysisOrder {
		if !requested[a] {
			continue
		}
		actx, aspan := telemetry.StartSpan(ctx, "analysis."+string(a))
		var err error
		switch a {
		case AnalysisThroughput:
			err = e.analyzeThroughput(actx, req, res)
		case AnalysisSchedule:
			err = e.analyzeSchedule(actx, req.Graph, res)
		case AnalysisSizing:
			err = e.analyzeSizing(actx, req.Graph, res)
		case AnalysisSymbolic:
			err = e.analyzeSymbolic(actx, req.Graph, res)
		}
		aspan.End()
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// sectionErr routes an analysis error: contextual errors abort the job,
// anything else is recorded by the caller as a section error.
func sectionErr(ctx context.Context, err error) (string, error) {
	if err == nil {
		return "", nil
	}
	if contextual(err) || ctx.Err() != nil {
		return "", err
	}
	return err.Error(), nil
}

// throughputFromSymbolic reuses an already-computed symbolic section as
// the throughput answer where that is sound: an exact symbolic result (or
// a certified deadlock) settles both the default method and an explicit
// symbolic request; a failed exploration settles only the explicit request.
// The second return reports whether the section was conclusive.
func throughputFromSymbolic(m Method, res *Result) (*ThroughputResult, bool) {
	sym := res.Symbolic
	if sym == nil {
		return nil, false
	}
	switch {
	case sym.Error == "":
		return &ThroughputResult{
			Period:     sym.Period,
			Throughput: sym.Throughput,
			Float:      sym.Float,
			Optimal:    true,
			Method:     MethodSymbolic,
		}, true
	case res.symDeadlock:
		return &ThroughputResult{Method: MethodSymbolic, Optimal: true, Throughput: "0", Error: sym.Error}, true
	case m == MethodSymbolic:
		return &ThroughputResult{Method: m, Error: sym.Error}, true
	}
	return nil, false
}

func (e *Engine) analyzeThroughput(ctx context.Context, req *Request, res *Result) error {
	if req.Method == MethodAuto || req.Method == MethodSymbolic {
		if tr, done := throughputFromSymbolic(req.Method, res); done {
			res.Throughput = tr
			return nil
		}
	}
	var tr *ThroughputResult
	var err error
	if req.Method == MethodAuto {
		// A symbolic section present here has failed (a conclusive one
		// returned above), so the chain skips its symbolic step.
		tr, err = e.autoThroughput(ctx, req.Graph, res.Symbolic != nil)
	} else {
		tr, err = e.runMethod(ctx, req.Graph, req.Method)
	}
	if err != nil {
		msg, abort := sectionErr(ctx, err)
		if abort != nil {
			return abort
		}
		tr = &ThroughputResult{Method: req.Method, Error: msg}
	}
	res.Throughput = tr
	return nil
}

func (e *Engine) analyzeSchedule(ctx context.Context, g *csdf.Graph, res *Result) error {
	// Reuse the throughput section's certified periodicity vector when
	// this job already computed one; otherwise run K-Iter for it.
	var K []int64
	var period string
	if t := res.Throughput; t != nil && t.Error == "" && t.Optimal && len(t.K) > 0 {
		K, period = t.K, t.Period
	} else {
		kr, err := kperiodic.KIterCtx(ctx, g, e.cfg.Options)
		if err != nil {
			msg, abort := sectionErr(ctx, err)
			if abort != nil {
				return abort
			}
			res.Schedule = &ScheduleResult{Error: msg}
			return nil
		}
		K, period = kr.K, kr.Period.String()
	}
	s, err := kperiodic.ScheduleKCtx(ctx, g, K, e.cfg.Options)
	if err != nil {
		msg, abort := sectionErr(ctx, err)
		if abort != nil {
			return abort
		}
		res.Schedule = &ScheduleResult{K: K, Error: msg}
		return nil
	}
	res.Schedule = &ScheduleResult{
		K:       K,
		Period:  period,
		Latency: sched.IterationLatency(g, s).String(),
	}
	return nil
}

func (e *Engine) analyzeSizing(ctx context.Context, g *csdf.Graph, res *Result) error {
	// With a certified periodicity vector already in hand, the optimal
	// capacities are one schedule construction away — skip the K-Iter
	// run inside OptimalCapacitiesCtx.
	if t := res.Throughput; t != nil && t.Error == "" && t.Optimal && len(t.K) > 0 {
		s, err := kperiodic.ScheduleKCtx(ctx, g, t.K, e.cfg.Options)
		if err != nil {
			msg, abort := sectionErr(ctx, err)
			if abort != nil {
				return abort
			}
			res.Sizing = &SizingResult{Error: msg}
			return nil
		}
		res.Sizing = &SizingResult{Capacities: sched.BufferBacklog(g, s, 3), Period: t.Period}
		return nil
	}
	caps, period, err := sizing.OptimalCapacitiesCtx(ctx, g, e.cfg.Options)
	if err != nil {
		msg, abort := sectionErr(ctx, err)
		if abort != nil {
			return abort
		}
		res.Sizing = &SizingResult{Error: msg}
		return nil
	}
	res.Sizing = &SizingResult{Capacities: caps, Period: period.String()}
	return nil
}

func (e *Engine) analyzeSymbolic(ctx context.Context, g *csdf.Graph, res *Result) error {
	r, err := symbexec.RunCtx(ctx, g, e.cfg.Symbolic)
	if err != nil {
		msg, abort := sectionErr(ctx, err)
		if abort != nil {
			return abort
		}
		res.Symbolic = &SymbolicResult{Error: msg}
		res.symDeadlock = errors.Is(err, symbexec.ErrDeadlock)
		return nil
	}
	res.Symbolic = &SymbolicResult{
		Period:        r.Period.String(),
		Throughput:    r.Throughput.String(),
		Float:         r.Throughput.Float(),
		TransientTime: r.TransientTime,
		CycleTime:     r.CycleTime,
		Events:        r.Events,
		StatesStored:  r.StatesStored,
	}
	return nil
}
