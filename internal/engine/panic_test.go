package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"kiter/internal/faultinject"
	"kiter/internal/gen"
)

// TestWorkerPanicIsolated: a panicking evaluation fails its own job with a
// PanicError — stack attached, Stats.Panics bumped — while the worker pool
// keeps serving subsequent jobs.
func TestWorkerPanicIsolated(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1})
	e.evalFn = func(ctx context.Context, req *Request) (*Result, error) {
		panic("solver exploded")
	}
	_, err := e.Submit(context.Background(), &Request{Graph: gen.Figure2(), NoCache: true})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Submit error = %v, want PanicError", err)
	}
	if pe.Where != "evaluate" || len(pe.Stack) == 0 {
		t.Fatalf("PanicError incomplete: where=%q stackLen=%d", pe.Where, len(pe.Stack))
	}
	s := e.Stats()
	if s.Panics != 1 || s.Errors != 1 {
		t.Fatalf("stats after panic: panics=%d errors=%d, want 1/1", s.Panics, s.Errors)
	}

	// The single worker survived: a healthy evaluation still completes.
	e.evalFn = e.evaluate
	res, err := e.Submit(context.Background(), &Request{Graph: gen.Figure2()})
	if err != nil || res.Throughput == nil || !res.Throughput.Optimal {
		t.Fatalf("engine dead after panic: %v, %+v", err, res)
	}
}

// TestChainStepPanicFallsThrough: an injected panic in the K-Iter step of
// the default method is recovered and counted, and the next step answers
// with the certified-optimal result.
func TestChainStepPanicFallsThrough(t *testing.T) {
	arm(t, "solver.kiter:panic")
	e := newTestEngine(t, Config{Workers: 1})
	want := figure2Result(t)
	res, err := e.Submit(context.Background(), &Request{Graph: gen.Figure2()})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	tr := res.Throughput
	if tr == nil || tr.Method != MethodSymbolic || !tr.Optimal || tr.Period != want {
		t.Fatalf("chain with panicking K-Iter step: %+v", tr)
	}
	if s := e.Stats(); s.Panics != 1 || s.Errors != 0 {
		t.Fatalf("panics = %d, errors = %d, want 1/0", s.Panics, s.Errors)
	}
}

// TestAllContestantsPanicFailsJobOnly: when every step of the default
// method's chain panics, the throughput section carries K-Iter's
// recovered-panic error (deterministic, like any analysis failure) and the
// engine (and process) survive.
func TestAllContestantsPanicFailsJobOnly(t *testing.T) {
	set, err := faultinject.Parse("solver.kiter:panic,solver.periodic:panic,solver.symbolic:panic")
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Activate(set)
	defer faultinject.Activate(nil)

	e := newTestEngine(t, Config{Workers: 2})
	res, err := e.Submit(context.Background(), &Request{Graph: gen.Figure2(), NoCache: true})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if res.Throughput == nil || !strings.Contains(res.Throughput.Error, "recovered panic in solve.kiter") {
		t.Fatalf("throughput section = %+v, want K-Iter's recovered-panic error", res.Throughput)
	}
	if s := e.Stats(); s.Panics != 3 {
		t.Fatalf("panics = %d, want 3 (one per chain step)", s.Panics)
	}
	faultinject.Activate(nil)
	res, err = e.Submit(context.Background(), &Request{Graph: gen.Figure2()})
	if err != nil || res.Throughput == nil || !res.Throughput.Optimal {
		t.Fatalf("engine dead after triple panic: %v, %+v", err, res)
	}
}

// TestSolverEntryErrorInjection: the job-level failpoint fails the whole
// evaluation with the injected error.
func TestSolverEntryErrorInjection(t *testing.T) {
	set, err := faultinject.Parse("solver.entry:error::1")
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Activate(set)
	defer faultinject.Activate(nil)

	e := newTestEngine(t, Config{Workers: 1})
	if _, err := e.Submit(context.Background(), &Request{Graph: gen.Figure2(), NoCache: true}); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("Submit error = %v, want ErrInjected", err)
	}
	// The clause burned out; the next submission is clean.
	if _, err := e.Submit(context.Background(), &Request{Graph: gen.Figure2()}); err != nil {
		t.Fatalf("post-budget submission failed: %v", err)
	}
}

// TestCloseRacesSubmitFamily: Close during an in-flight family must
// neither deadlock nor drop callbacks — every member that started gets
// exactly one done invocation (result or ErrClosed), Close returns, and
// SubmitFamily returns. This is the drain path a SIGTERM exercises.
func TestCloseRacesSubmitFamily(t *testing.T) {
	e := New(Config{Workers: 2})
	var started, finished atomic.Int64
	release := make(chan struct{})
	e.evalFn = func(ctx context.Context, req *Request) (*Result, error) {
		started.Add(1)
		select {
		case <-release:
		case <-time.After(5 * time.Second):
		}
		return &Result{Fingerprint: req.fingerprintHint}, nil
	}

	const n = 24
	var calls [n]atomic.Int64
	famErr := make(chan error, 1)
	go func() {
		famErr <- e.SubmitFamily(context.Background(), n, FamilyConfig{Width: 4},
			func(i int) (*Request, error) {
				// Distinct durations → distinct fingerprints, so members do
				// not coalesce on the singleflight.
				return &Request{Graph: gen.HSDFRing(2, []int64{int64(i + 1)}, 1), NoCache: true}, nil
			},
			func(r FamilyResult) {
				finished.Add(1)
				calls[r.Index].Add(1)
				if r.Err != nil && !errors.Is(r.Err, ErrClosed) && !errors.Is(r.Err, ErrOverloaded) {
					t.Errorf("member %d: unexpected error %v", r.Index, r.Err)
				}
			})
	}()

	// Let some members get onto workers, then close mid-family while
	// evaluations are blocked — the race this test exists for.
	for started.Load() < 2 {
		time.Sleep(time.Millisecond)
	}
	closed := make(chan struct{})
	go func() {
		e.Close()
		close(closed)
	}()
	time.Sleep(10 * time.Millisecond)
	close(release)

	select {
	case <-closed:
	case <-time.After(30 * time.Second):
		t.Fatal("Close deadlocked against SubmitFamily")
	}
	select {
	case err := <-famErr:
		if err != nil {
			t.Fatalf("SubmitFamily returned %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("SubmitFamily never returned")
	}
	// Exactly one callback per member: the family ran to completion (its
	// context was never cancelled), so every member started and resolved —
	// as a result or as ErrClosed — never twice, never zero times.
	for i := range calls {
		if got := calls[i].Load(); got != 1 {
			t.Fatalf("member %d got %d done callbacks, want 1 (total %d)", i, got, finished.Load())
		}
	}
}

// TestPanicErrorMessage pins the error surface: it names the site and the
// panic value so operators can grep logs and recorded traces for it.
func TestPanicErrorMessage(t *testing.T) {
	pe := &PanicError{Where: "solve.kiter", Value: fmt.Errorf("boom")}
	if got := pe.Error(); got != "engine: recovered panic in solve.kiter: boom" {
		t.Fatalf("Error() = %q", got)
	}
}
