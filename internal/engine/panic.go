package engine

import (
	"context"
	"fmt"
	"log"
	"runtime/debug"

	"kiter/internal/csdf"
	"kiter/internal/telemetry"
)

// PanicError is a solver panic recovered by the engine's isolation layer:
// the job that hit it fails with this error while the worker (and the
// process) keeps serving. The stack is captured at the recovery site.
type PanicError struct {
	// Where names the recovery site ("evaluate" for the worker-level
	// recover, "solve.<method>" for a step of the default method's chain,
	// "launch" for a Dispatcher or cache backend fault around them).
	Where string
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

func (p *PanicError) Error() string {
	return fmt.Sprintf("engine: recovered panic in %s: %v", p.Where, p.Value)
}

// recoveredPanic accounts one recovered solver panic: it bumps the panic
// counter, attaches the stack to the request's trace span (so the flight
// recorder keeps it with the errored trace), logs it to stderr, and
// returns the PanicError the job fails with.
func (e *Engine) recoveredPanic(ctx context.Context, where string, v any) *PanicError {
	stack := debug.Stack()
	e.met.panics.Inc()
	if span := telemetry.FromContext(ctx); span != nil {
		span.SetString("panic", fmt.Sprint(v))
		span.SetString("panicWhere", where)
		span.SetString("panicStack", string(stack))
	}
	log.Printf("engine: recovered panic in %s: %v\n%s", where, v, stack)
	return &PanicError{Where: where, Value: v, Stack: stack}
}

// safeEval runs the engine's evaluation function under panic isolation:
// a panicking solver fails this one job instead of crashing the worker
// goroutine (and with it the process).
func (e *Engine) safeEval(ctx context.Context, req *Request) (res *Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			res, err = nil, e.recoveredPanic(ctx, "evaluate", v)
		}
	}()
	return e.evalFn(ctx, req)
}

// safeLaunch runs launch on the leader's goroutine. A panic escaping it —
// from a Dispatcher or a cache backend, since solver panics are recovered
// further down — fails the job like a solver panic, so every waiter is
// released and pending drops instead of Close spinning on a job that
// never finishes.
func (e *Engine) safeLaunch(j *job, djob *DispatchJob) {
	defer func() {
		if v := recover(); v != nil {
			err := e.recoveredPanic(j.evalCtx(), "launch", v)
			if !j.finished {
				e.met.errors.Inc()
				e.finishJob(j, nil, err)
			}
		}
	}()
	e.launch(j, djob)
}

// safeRunMethod is runMethod under panic isolation, for the steps of the
// default method's chain: a panicking step becomes one failed step and the
// chain falls through to the next.
func (e *Engine) safeRunMethod(ctx context.Context, f *csdf.Facts, m Method) (tr *ThroughputResult, err error) {
	defer func() {
		if v := recover(); v != nil {
			tr, err = nil, e.recoveredPanic(ctx, methodNames[m].span, v)
		}
	}()
	return e.runMethod(ctx, f, m)
}
