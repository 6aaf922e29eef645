package engine

import (
	"context"
	"errors"
	"fmt"
	"time"

	"kiter/internal/csdf"
	"kiter/internal/faultinject"
	"kiter/internal/kperiodic"
	"kiter/internal/symbexec"
	"kiter/internal/telemetry"
)

// chainSteps is the default method's fallback order. K-Iter answers
// almost every graph optimally, usually fastest; symbolic execution is exact
// too and covers the graphs whose K-Iter expansion exceeds its budget; the
// 1-periodic method comes last because its answer may only be a bound.
var chainSteps = [...]Method{MethodKIter, MethodSymbolic, MethodPeriodic}

// autoThroughput evaluates the throughput of f's graph with the default
// method: the steps of chainSteps run one after another on the job's
// worker, each only when every earlier step failed. The first step that
// answers — an optimal result, a certified deadlock, or the 1-periodic
// result whatever its tightness — settles the job and is counted in
// Stats.RaceWins. A panicking step counts as a failed one. When every step
// fails, the K-Iter error is returned: it is the most informative.
// skipSymbolic drops the symbolic step, for jobs whose symbolic section
// already failed (a rerun would exhaust the same budget the same way).
func (e *Engine) autoThroughput(ctx context.Context, f *csdf.Facts, skipSymbolic bool) (*ThroughputResult, error) {
	var kiterErr error
	for i, m := range chainSteps {
		if m == MethodSymbolic && skipSymbolic {
			continue
		}
		tr, err := e.safeRunMethod(ctx, f, m)
		if err == nil {
			e.met.answers[i].Inc()
			return tr, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if kiterErr == nil {
			kiterErr = err
		}
	}
	return nil, kiterErr
}

// runMethod evaluates the throughput of f's graph with one method, timing
// it into the per-method solve histogram and a "solve.<method>" trace span
// — under the default method each chain step that runs leaves one such
// record.
func (e *Engine) runMethod(ctx context.Context, f *csdf.Facts, m Method) (*ThroughputResult, error) {
	mctx, span := telemetry.StartSpan(ctx, methodNames[m].span)
	start := time.Now()
	tr, err := e.runMethodInner(mctx, f, m)
	e.met.solve.With(string(m)).Observe(time.Since(start).Seconds())
	if span != nil {
		if err != nil {
			span.SetString("error", err.Error())
		} else {
			span.SetBool("optimal", tr.Optimal)
		}
		span.End()
	}
	return tr, err
}

// observeKIter folds a K-Iter run's work counters into the solver
// histograms. res may be a partial result (cancellation, budget) or nil
// (non-convergence). Arc work is real either way and always counts; the
// rounds/Howard distributions take completed solves only — a cancelled run
// would otherwise skew them toward truncated counts.
func (e *Engine) observeKIter(res *kperiodic.KIterResult, err error) {
	if res == nil {
		return
	}
	var built, reused, howard int64
	for _, step := range res.Trace {
		built += int64(step.ArcsBuilt)
		reused += int64(step.ArcsReused)
		howard += int64(step.HowardIterations)
	}
	e.met.arcsBuilt.Add(uint64(built))
	e.met.arcsReused.Add(uint64(reused))
	if err == nil {
		e.met.kiterRounds.Observe(float64(res.Iterations))
		e.met.howardIters.Observe(float64(howard))
	}
}

// runMethodInner dispatches to the solver for one method.
func (e *Engine) runMethodInner(ctx context.Context, f *csdf.Facts, m Method) (*ThroughputResult, error) {
	// Chaos seam: "solver.<method>" faults one method — under the default
	// method an injected error or panic here fails that chain step and the
	// next one answers, so the job still succeeds.
	if err := faultinject.Fire(methodNames[m].point); err != nil {
		return nil, err
	}
	switch m {
	case MethodKIter:
		res, err := kperiodic.KIterFacts(ctx, f, e.cfg.Options)
		e.observeKIter(res, err)
		if err != nil {
			return deadlockVerdict(m, err)
		}
		tr := fromEvaluation(res.Evaluation, m)
		tr.Iterations = res.Iterations
		return tr, nil
	case MethodPeriodic, MethodExpansion:
		eval := kperiodic.Evaluate1Facts
		if m == MethodExpansion {
			eval = kperiodic.ExpansionFacts
		}
		ev, err := eval(ctx, f, e.cfg.Options)
		if err != nil {
			return deadlockVerdict(m, err)
		}
		e.met.howardIters.Observe(float64(ev.HowardIterations))
		return fromEvaluation(ev, m), nil
	case MethodSymbolic:
		res, err := symbexec.RunFacts(ctx, f, e.cfg.Symbolic)
		if err != nil {
			return deadlockVerdict(m, err)
		}
		return &ThroughputResult{
			Period:     res.Period.String(),
			Throughput: res.Throughput.String(),
			Float:      res.Throughput.Float(),
			Optimal:    true, // symbolic execution is exact
			Method:     m,
		}, nil
	default:
		return nil, fmt.Errorf("engine: unknown method %q", m)
	}
}

// deadlockVerdict turns a certified deadlock into the definitive
// throughput-zero answer; any other solver error stays a failure.
func deadlockVerdict(m Method, err error) (*ThroughputResult, error) {
	var de *kperiodic.DeadlockError
	if errors.As(err, &de) || errors.Is(err, symbexec.ErrDeadlock) {
		return &ThroughputResult{Method: m, Optimal: true, Throughput: "0", Error: err.Error()}, nil
	}
	return nil, err
}

// fromEvaluation converts a K-periodic evaluation into the wire shape.
func fromEvaluation(ev *kperiodic.Evaluation, m Method) *ThroughputResult {
	t := &ThroughputResult{
		Period:  ev.Period.String(),
		Optimal: ev.Optimal,
		Method:  m,
		K:       ev.K,
	}
	if ev.Throughput.Sign() != 0 {
		t.Throughput = ev.Throughput.String()
		t.Float = ev.Throughput.Float()
	}
	return t
}

// contextual reports whether err is a context cancellation or deadline.
func contextual(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
