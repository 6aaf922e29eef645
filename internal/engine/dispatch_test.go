package engine

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"kiter/internal/gen"
)

// stubDispatcher scripts Dispatch outcomes and records what it saw.
type stubDispatcher struct {
	calls atomic.Int64
	jobs  chan *DispatchJob // buffered capture of dispatched jobs, if set
	fn    func(ctx context.Context, job *DispatchJob) (*Result, bool, error)
}

func (d *stubDispatcher) Dispatch(ctx context.Context, job *DispatchJob) (*Result, bool, error) {
	d.calls.Add(1)
	if d.jobs != nil {
		d.jobs <- job
	}
	return d.fn(ctx, job)
}

func TestDispatcherHandlesJob(t *testing.T) {
	remote := &Result{
		Fingerprint: gen.Figure2().FingerprintHex(),
		Throughput:  &ThroughputResult{Period: "42", Throughput: "1/42", Optimal: true, Method: MethodKIter},
		Peer:        "peer-1",
	}
	d := &stubDispatcher{jobs: make(chan *DispatchJob, 1)}
	d.fn = func(ctx context.Context, job *DispatchJob) (*Result, bool, error) {
		return remote, true, nil
	}
	e := newTestEngine(t, Config{Workers: 2, Dispatcher: d})

	res, err := e.Submit(context.Background(), &Request{Graph: gen.Figure2()})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if res.Throughput == nil || res.Throughput.Period != "42" || res.Peer != "peer-1" {
		t.Fatalf("remote result not published: %+v", res)
	}
	job := <-d.jobs
	if job.Fingerprint != gen.Figure2().FingerprintHex() {
		t.Fatalf("dispatch job fingerprint = %s", job.Fingerprint)
	}
	if job.Method != MethodAuto || len(job.Analyses) != 1 || job.Analyses[0] != AnalysisThroughput {
		t.Fatalf("dispatch job not normalized: %+v", job)
	}

	// The remote result was cached under the local key: the repeat is a
	// cache hit and never consults the dispatcher again.
	res2, err := e.Submit(context.Background(), &Request{Graph: gen.Figure2()})
	if err != nil {
		t.Fatalf("repeat Submit: %v", err)
	}
	if !res2.CacheHit || res2.Peer != "peer-1" {
		t.Fatalf("repeat not served from cache with peer attribution: %+v", res2)
	}
	s := e.Stats()
	if s.RemoteResults != 1 || s.Evaluations != 0 {
		t.Fatalf("stats remote=%d evaluations=%d, want 1/0", s.RemoteResults, s.Evaluations)
	}
	if got := d.calls.Load(); got != 1 {
		t.Fatalf("dispatcher consulted %d times, want 1", got)
	}
}

func TestDispatcherDeclinesToLocal(t *testing.T) {
	d := &stubDispatcher{}
	d.fn = func(ctx context.Context, job *DispatchJob) (*Result, bool, error) {
		return nil, false, nil
	}
	e := newTestEngine(t, Config{Workers: 2, Dispatcher: d})
	res, err := e.Submit(context.Background(), &Request{Graph: gen.Figure2(), Method: MethodKIter})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if res.Throughput == nil || !res.Throughput.Optimal {
		t.Fatalf("local fallback did not evaluate: %+v", res)
	}
	if want := figure2Result(t); res.Throughput.Period != want {
		t.Fatalf("period = %s, want %s", res.Throughput.Period, want)
	}
	s := e.Stats()
	if s.RemoteResults != 0 || s.Evaluations != 1 {
		t.Fatalf("stats remote=%d evaluations=%d, want 0/1", s.RemoteResults, s.Evaluations)
	}
	if d.calls.Load() != 1 {
		t.Fatalf("dispatcher consulted %d times, want 1", d.calls.Load())
	}
}

func TestDispatcherErrorFailsJob(t *testing.T) {
	boom := errors.New("peer exploded mid-flight")
	d := &stubDispatcher{}
	d.fn = func(ctx context.Context, job *DispatchJob) (*Result, bool, error) {
		return nil, true, boom
	}
	e := newTestEngine(t, Config{Workers: 1, Dispatcher: d})
	if _, err := e.Submit(context.Background(), &Request{Graph: gen.Figure2()}); !errors.Is(err, boom) {
		t.Fatalf("Submit error = %v, want %v", err, boom)
	}
	if s := e.Stats(); s.Errors != 1 {
		t.Fatalf("errors = %d, want 1", s.Errors)
	}
}

func TestNoForwardSkipsDispatcher(t *testing.T) {
	d := &stubDispatcher{}
	d.fn = func(ctx context.Context, job *DispatchJob) (*Result, bool, error) {
		t.Error("dispatcher consulted for a NoForward request")
		return nil, false, nil
	}
	e := newTestEngine(t, Config{Workers: 1, Dispatcher: d})
	res, err := e.Submit(context.Background(), &Request{Graph: gen.Figure2(), Method: MethodKIter, NoForward: true})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if res.Throughput == nil || res.Throughput.Period == "" {
		t.Fatalf("NoForward request not evaluated locally: %+v", res)
	}
	if d.calls.Load() != 0 {
		t.Fatalf("dispatcher calls = %d, want 0", d.calls.Load())
	}
}

// TestCloseCancelsInFlightDispatch: Engine.Close must not wait out a slow
// remote forward — the dispatch context dies with the engine and the
// job's waiters get ErrClosed promptly.
func TestCloseCancelsInFlightDispatch(t *testing.T) {
	entered := make(chan struct{})
	d := &stubDispatcher{}
	d.fn = func(ctx context.Context, job *DispatchJob) (*Result, bool, error) {
		close(entered)
		select {
		case <-ctx.Done():
			return nil, true, ctx.Err()
		case <-time.After(30 * time.Second):
			return nil, true, errors.New("dispatch context survived Close")
		}
	}
	e := New(Config{Workers: 1, Dispatcher: d})
	errc := make(chan error, 1)
	go func() {
		_, err := e.Submit(context.Background(), &Request{Graph: gen.Figure2()})
		errc <- err
	}()
	<-entered
	closed := make(chan struct{})
	go func() {
		e.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close stalled behind an in-flight dispatch")
	}
	if err := <-errc; !errors.Is(err, ErrClosed) {
		t.Fatalf("waiter got %v, want ErrClosed", err)
	}
}

func TestDispatcherSeesFlightContext(t *testing.T) {
	// A dispatcher blocked mid-forward must observe the flight context die
	// when the last waiter departs — the forwarded-job half of the
	// waiter-refcount contract (see singleflight_test.go for the local
	// half).
	entered := make(chan struct{})
	d := &stubDispatcher{}
	d.fn = func(ctx context.Context, job *DispatchJob) (*Result, bool, error) {
		close(entered)
		select {
		case <-ctx.Done():
			return nil, true, ctx.Err()
		case <-time.After(5 * time.Second):
			return nil, true, errors.New("flight context never cancelled")
		}
	}
	e := newTestEngine(t, Config{Workers: 1, Dispatcher: d})

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := e.Submit(ctx, &Request{Graph: gen.Figure2()})
		errc <- err
	}()
	<-entered
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("Submit error = %v, want context.Canceled", err)
	}
	// The dispatch returns the cancellation; the engine accounts it as a
	// cancelled job, not an error.
	deadline := time.Now().Add(2 * time.Second)
	for e.Stats().Cancelled == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("cancelled counter never moved: %+v", e.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDispatcherPanicReleasesWaiters: a Dispatcher that panics on the
// leader's goroutine fails the job like a solver panic does. The leader
// and every waiter get the PanicError, pending drops to zero and Close
// returns.
func TestDispatcherPanicReleasesWaiters(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	d := &stubDispatcher{fn: func(ctx context.Context, job *DispatchJob) (*Result, bool, error) {
		close(entered)
		<-release
		panic("dispatcher exploded")
	}}
	e := New(Config{Workers: 1, Dispatcher: d})
	const submitters = 4
	errs := make(chan error, submitters)
	submit := func() {
		_, err := e.Submit(context.Background(), &Request{Graph: gen.Figure2()})
		errs <- err
	}
	go submit()
	<-entered
	for range submitters - 1 {
		go submit()
	}
	waitForStat(t, e, func(s Stats) bool { return s.Deduped == submitters-1 })
	close(release)
	for range submitters {
		select {
		case err := <-errs:
			var pe *PanicError
			if !errors.As(err, &pe) || pe.Where != "launch" {
				t.Fatalf("Submit error = %v, want a PanicError from launch", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a submitter hung after the Dispatcher panicked")
		}
	}
	if n := e.PendingJobs(); n != 0 {
		t.Fatalf("%d jobs still pending after the panic", n)
	}
	if s := e.Stats(); s.Panics != 1 || s.Errors != 1 {
		t.Fatalf("stats after panic: panics=%d errors=%d, want 1/1", s.Panics, s.Errors)
	}
	closed := make(chan struct{})
	go func() { e.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return after the Dispatcher panicked")
	}
}

// TestReleaseGraphJSON checks when Submit hands a caller's GraphJSON back:
// after the Dispatcher saw it, and before any local evaluation or the wait
// on a duplicate's, so a lent buffer is not held through a solve.
func TestReleaseGraphJSON(t *testing.T) {
	text := []byte(`{"name":"figure2"}`)
	var released atomic.Int64
	req := func() *Request {
		return &Request{Graph: gen.Figure2(), GraphJSON: text, ReleaseGraphJSON: func() { released.Add(1) }}
	}
	d := &stubDispatcher{}
	d.fn = func(ctx context.Context, job *DispatchJob) (*Result, bool, error) {
		if released.Load() != 0 || string(job.GraphJSON) != string(text) {
			t.Errorf("Dispatch saw %q after %d releases, want %q before any", job.GraphJSON, released.Load(), text)
		}
		return nil, false, nil
	}
	e := newTestEngine(t, Config{Workers: 2, Dispatcher: d})
	inner := e.evalFn
	e.evalFn = func(ctx context.Context, r *Request) (*Result, error) {
		if n := released.Load(); n != 1 {
			t.Errorf("leader evaluates after %d releases, want 1", n)
		}
		// The duplicate joins now and must release before it waits.
		go func() {
			if _, err := e.Submit(context.Background(), req()); err != nil {
				t.Errorf("duplicate Submit: %v", err)
			}
		}()
		for deadline := time.Now().Add(5 * time.Second); released.Load() < 2 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		if released.Load() < 2 {
			t.Error("the duplicate did not release its GraphJSON before waiting")
		}
		return inner(ctx, r)
	}
	if _, err := e.Submit(context.Background(), req()); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if got := d.calls.Load(); got != 1 {
		t.Fatalf("dispatcher consulted %d times, want 1", got)
	}
}
