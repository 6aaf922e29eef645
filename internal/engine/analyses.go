package engine

import (
	"context"
	"errors"
	"slices"

	"kiter/internal/csdf"
	"kiter/internal/faultinject"
	"kiter/internal/kperiodic"
	"kiter/internal/sched"
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

// evaluate runs every requested analysis of a prepared request on the
// graph its facts describe, which every analysis shares. Analysis
// failures land in the per-section Error fields (they are deterministic
// and cacheable); only context cancellation aborts the whole job.
func (e *Engine) evaluate(ctx context.Context, req *Request) (*Result, error) {
	// Chaos seam: "solver.entry" faults the whole job — an injected error
	// fails it, an injected panic exercises the worker-level recovery.
	if err := faultinject.Fire(faultinject.PointSolverEntry); err != nil {
		return nil, err
	}
	res := &Result{Fingerprint: req.fingerprintHint}
	f := req.Facts
	// The schedule and sizing sections derive from one schedule, built by
	// whichever of them runs first.
	var ks *kSchedule
	for _, a := range analysisOrder {
		if !slices.Contains(req.Analyses, a) {
			continue
		}
		actx, aspan := telemetry.StartSpan(ctx, analysisSpans[a])
		var err error
		switch a {
		case AnalysisThroughput:
			err = e.analyzeThroughput(actx, req.Method, f, res)
		case AnalysisSchedule, AnalysisSizing:
			if ks == nil {
				ks, err = e.buildKSchedule(actx, f, res)
			}
			if err == nil {
				if a == AnalysisSchedule {
					res.Schedule = ks.scheduleSection(f.Graph())
				} else {
					res.Sizing = ks.sizingSection(f.Graph())
				}
			}
		case AnalysisSymbolic:
			err = e.analyzeSymbolic(actx, f, res)
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

func (e *Engine) analyzeThroughput(ctx context.Context, m Method, f *csdf.Facts, res *Result) error {
	if m == MethodAuto || m == MethodSymbolic {
		if tr, done := throughputFromSymbolic(m, res); done {
			res.Throughput = tr
			return nil
		}
	}
	var tr *ThroughputResult
	var err error
	if m == MethodAuto {
		// A symbolic section present here has failed (a conclusive one
		// returned above), so the chain skips its symbolic step.
		tr, err = e.autoThroughput(ctx, f, res.Symbolic != nil)
	} else {
		tr, err = e.runMethod(ctx, f, m)
	}
	if err != nil {
		msg, abort := sectionErr(ctx, err)
		if abort != nil {
			return abort
		}
		tr = &ThroughputResult{Method: m, Error: msg}
	}
	res.Throughput = tr
	return nil
}

// kSchedule is what the schedule and sizing sections share: a K-periodic
// schedule at the optimal periodicity vector K, with its period, or, with
// s nil, the section error that stopped it. K is nil when K-Iter itself
// failed.
type kSchedule struct {
	K      []int64
	period string
	s      *kperiodic.Schedule
	err    string
}

// buildKSchedule reuses the throughput section's certified periodicity
// vector when this job already computed one; otherwise it runs K-Iter for
// it. Only a contextual error is returned; any other failure is recorded
// as the sections' error.
func (e *Engine) buildKSchedule(ctx context.Context, f *csdf.Facts, res *Result) (*kSchedule, error) {
	ks := &kSchedule{}
	if t := res.Throughput; t != nil && t.Error == "" && t.Optimal && len(t.K) > 0 {
		ks.K, ks.period = t.K, t.Period
	} else {
		kr, err := kperiodic.KIterFacts(ctx, f, e.cfg.Options)
		if err != nil {
			var abort error
			ks.err, abort = sectionErr(ctx, err)
			return ks, abort
		}
		ks.K, ks.period = kr.K, kr.Period.String()
	}
	s, err := kperiodic.ScheduleKFacts(ctx, f, ks.K, e.cfg.Options)
	if err != nil {
		var abort error
		ks.err, abort = sectionErr(ctx, err)
		return ks, abort
	}
	ks.s = s
	return ks, nil
}

func (ks *kSchedule) scheduleSection(g *csdf.Graph) *ScheduleResult {
	if ks.s == nil {
		return &ScheduleResult{K: ks.K, Error: ks.err}
	}
	return &ScheduleResult{
		K:       ks.K,
		Period:  ks.period,
		Latency: sched.IterationLatency(g, ks.s).String(),
	}
}

func (ks *kSchedule) sizingSection(g *csdf.Graph) *SizingResult {
	if ks.s == nil {
		return &SizingResult{Error: ks.err}
	}
	return &SizingResult{Capacities: sched.BufferBacklog(g, ks.s, 3), Period: ks.period}
}

func (e *Engine) analyzeSymbolic(ctx context.Context, f *csdf.Facts, res *Result) error {
	r, err := symbexec.RunFacts(ctx, f, e.cfg.Symbolic)
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
