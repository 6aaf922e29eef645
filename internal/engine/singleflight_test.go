package engine

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kiter/internal/gen"
)

// flightLen reports the number of in-flight keys (test-only).
func (g *flightGroup) flightLen() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.calls)
}

// TestWaiterDepartsMidFlight: one of several coalesced waiters cancelling
// must not disturb the flight — the evaluation keeps its context, the
// remaining waiters get the result, and only the departed waiter sees its
// own cancellation. This is the hot path of the cluster: a forwarded
// waiter departing (client disconnect on another replica) while local
// submitters still want the answer.
func TestWaiterDepartsMidFlight(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1})
	started := make(chan struct{})
	release := make(chan struct{})
	var evals atomic.Int64
	var jobCtxErr atomic.Value
	e.evalFn = func(ctx context.Context, req *Request) (*Result, error) {
		evals.Add(1)
		close(started)
		<-release
		jobCtxErr.Store(ctx.Err() == nil) // true when still live
		return &Result{Fingerprint: req.fingerprintHint}, nil
	}

	// Leader.
	leaderErr := make(chan error, 1)
	go func() {
		_, err := e.Submit(context.Background(), &Request{Graph: gen.Figure2()})
		leaderErr <- err
	}()
	<-started

	// Two more waiters join the same flight; one will depart.
	departCtx, depart := context.WithCancel(context.Background())
	departErr := make(chan error, 1)
	stayErr := make(chan error, 1)
	go func() {
		_, err := e.Submit(departCtx, &Request{Graph: gen.Figure2()})
		departErr <- err
	}()
	go func() {
		_, err := e.Submit(context.Background(), &Request{Graph: gen.Figure2()})
		stayErr <- err
	}()
	waitForStat(t, e, func(s Stats) bool { return s.Deduped == 2 })

	depart()
	if err := <-departErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("departed waiter got %v, want context.Canceled", err)
	}
	close(release)
	if err := <-leaderErr; err != nil {
		t.Fatalf("leader: %v", err)
	}
	if err := <-stayErr; err != nil {
		t.Fatalf("staying waiter: %v", err)
	}
	if evals.Load() != 1 {
		t.Fatalf("evaluations = %d, want 1", evals.Load())
	}
	if live, _ := jobCtxErr.Load().(bool); !live {
		t.Fatal("job context was cancelled although waiters remained")
	}
	if n := e.flight.flightLen(); n != 0 {
		t.Fatalf("%d flight keys leaked after finish", n)
	}
}

// TestLeaderDepartsWhileWaitersRemain: the leader evaluates on its own
// goroutine, so its departure differs from a waiter's in one way. When its
// context ends while another waiter remains, the evaluation keeps its
// context and runs on, the waiter gets the result, and the leader's Submit
// returns context.Canceled, but only once the evaluation has ended.
func TestLeaderDepartsWhileWaitersRemain(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1})
	started := make(chan struct{})
	release := make(chan struct{})
	var evals atomic.Int64
	var jobCtxLive atomic.Bool
	e.evalFn = func(ctx context.Context, req *Request) (*Result, error) {
		evals.Add(1)
		close(started)
		<-release
		jobCtxLive.Store(ctx.Err() == nil)
		return &Result{Fingerprint: req.fingerprintHint}, nil
	}

	leaderCtx, depart := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, err := e.Submit(leaderCtx, &Request{Graph: gen.Figure2()})
		leaderErr <- err
	}()
	<-started
	type reply struct {
		res *Result
		err error
	}
	waiter := make(chan reply, 1)
	go func() {
		res, err := e.Submit(context.Background(), &Request{Graph: gen.Figure2()})
		waiter <- reply{res, err}
	}()
	waitForStat(t, e, func(s Stats) bool { return s.Deduped == 1 })

	depart()
	// The departure is a leave: wait until it has dropped the leader's
	// reference, so the evaluation below runs with one waiter left.
	deadline := time.Now().Add(5 * time.Second)
	for waiters(e.flight) != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("leader's departure never left the flight (waiters = %d)", waiters(e.flight))
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-leaderErr:
		t.Fatalf("leader returned %v while its evaluation was still running", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("departed leader got %v, want context.Canceled", err)
	}
	if r := <-waiter; r.err != nil || !r.res.Deduped {
		t.Fatalf("remaining waiter got %+v, %v; want the shared result", r.res, r.err)
	}
	if !jobCtxLive.Load() {
		t.Fatal("job context was cancelled although a waiter remained")
	}
	if evals.Load() != 1 {
		t.Fatalf("evaluations = %d, want 1", evals.Load())
	}
	if n := e.flight.flightLen(); n != 0 {
		t.Fatalf("%d flight keys leaked after finish", n)
	}
}

// waiters sums the waiter counts of g's in-flight calls (test-only).
func waiters(g *flightGroup) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := 0
	for _, c := range g.calls {
		n += c.waiters
	}
	return n
}

// TestAllWaitersDepartReleasesKey: once the last of several waiters
// departs mid-flight, the job context fires AND the key is released, so
// the next submission of the same graph starts a fresh evaluation instead
// of inheriting the dying one.
func TestAllWaitersDepartReleasesKey(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1})
	var evals atomic.Int64
	aborted := make(chan struct{}, 4)
	e.evalFn = func(ctx context.Context, req *Request) (*Result, error) {
		n := evals.Add(1)
		if n == 1 {
			<-ctx.Done() // first flight: hang until abandoned
			aborted <- struct{}{}
			return nil, ctx.Err()
		}
		return &Result{Fingerprint: req.fingerprintHint}, nil
	}

	const waiters = 3
	ctx, cancelAll := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	errs := make([]error, waiters)
	for i := 0; i < waiters; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = e.Submit(ctx, &Request{Graph: gen.Figure2()})
		}()
	}
	waitForStat(t, e, func(s Stats) bool { return s.Deduped == waiters-1 })
	cancelAll()
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("waiter %d: %v, want context.Canceled", i, err)
		}
	}
	select {
	case <-aborted:
	case <-time.After(5 * time.Second):
		t.Fatal("evaluation not aborted after the last waiter left")
	}

	// The key must be free again: a fresh submission evaluates anew.
	res, err := e.Submit(context.Background(), &Request{Graph: gen.Figure2()})
	if err != nil {
		t.Fatalf("fresh Submit after abandonment: %v", err)
	}
	if res.Deduped || res.CacheHit {
		t.Fatalf("fresh submission rode the abandoned flight: %+v", res)
	}
	if evals.Load() != 2 {
		t.Fatalf("evaluations = %d, want 2 (abandoned + fresh)", evals.Load())
	}
	waitForStat(t, e, func(s Stats) bool { return s.Cancelled == 1 })
	if n := e.flight.flightLen(); n != 0 {
		t.Fatalf("%d flight keys leaked", n)
	}
}

// TestFlightRefcountWhiteBox exercises the flightGroup's refcount edges
// directly: leaves below the last keep the call alive, the last leave
// cancels and releases, and a leave racing a finish is harmless.
func TestFlightRefcountWhiteBox(t *testing.T) {
	g := newFlightGroup()
	c, leader := g.join("k")
	if !leader {
		t.Fatal("first join not leader")
	}
	for i := 0; i < 2; i++ {
		if _, again := g.join("k"); again {
			t.Fatal("second join elected a new leader")
		}
	}

	// Two of three leave: the call survives, context intact.
	g.leave(c)
	g.leave(c)
	if err := c.jobCtx.Err(); err != nil {
		t.Fatalf("job context died with a waiter remaining: %v", err)
	}
	if g.flightLen() != 1 {
		t.Fatal("key released early")
	}

	// Last leave: cancelled and released.
	g.leave(c)
	if c.jobCtx.Err() == nil {
		t.Fatal("job context alive after last leave")
	}
	if g.flightLen() != 0 {
		t.Fatal("key not released after last leave")
	}

	// finish after full abandonment must not resurrect or panic (the
	// worker may still publish the doomed evaluation's outcome).
	g.finish(c, nil, context.Canceled)
	if g.flightLen() != 0 {
		t.Fatal("finish resurrected a released key")
	}

	// The key is reusable: a fresh join leads a fresh call.
	c2, leader := g.join("k")
	if !leader || c2 == c {
		t.Fatal("join after release did not start a fresh call")
	}
	g.finish(c2, &Result{}, nil)
	if g.flightLen() != 0 {
		t.Fatal("key not released by finish")
	}
	// A straggler waiter leaving after finish must not underflow into a
	// fresh call's state.
	g.leave(c2)
	if g.flightLen() != 0 {
		t.Fatal("leave after finish disturbed the group")
	}
}

// waitForStat polls the engine's stats until cond holds or a deadline
// passes — counters move a hair after the observable completion events.
func waitForStat(t *testing.T, e *Engine, cond func(Stats) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond(e.Stats()) {
		if time.Now().After(deadline) {
			t.Fatalf("stats condition never held: %+v", e.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// stallingCache is a cache whose second lookup, after reading its (missing)
// entry, stalls until release is closed: the window in which a descheduled
// submission's lookup and its flight join straddle another call's
// completion.
type stallingCache struct {
	CacheBackend
	lookups atomic.Int32
	looked  chan struct{} // closed once the second lookup has read
	release chan struct{}
}

func (c *stallingCache) Get(key string) (*Result, bool) {
	res, ok := c.CacheBackend.Get(key)
	if c.lookups.Add(1) == 2 {
		close(c.looked)
		<-c.release
	}
	return res, ok
}

// TestLookupJoinRace: a submission whose cache lookup misses while an
// identical call is in flight, and which joins only after that call
// finished, must not evaluate a second time — the new call's leader looks
// in the cache again and answers as a deduplicated submission.
func TestLookupJoinRace(t *testing.T) {
	cache := &stallingCache{
		CacheBackend: NewMemoryCache(1, 16),
		looked:       make(chan struct{}),
		release:      make(chan struct{}),
	}
	e := newTestEngine(t, Config{Workers: 1, CacheBackend: cache})
	started := make(chan struct{})
	var evals atomic.Int64
	e.evalFn = func(ctx context.Context, req *Request) (*Result, error) {
		if evals.Add(1) == 1 {
			close(started)
		}
		<-cache.looked // finish only after the second lookup missed
		return &Result{Fingerprint: req.fingerprintHint}, nil
	}

	first := make(chan error, 1)
	go func() {
		_, err := e.Submit(context.Background(), &Request{Graph: gen.Figure2()})
		first <- err
	}()
	<-started
	second := make(chan *Result, 1)
	go func() {
		res, err := e.Submit(context.Background(), &Request{Graph: gen.Figure2()})
		if err != nil {
			t.Error(err)
		}
		second <- res
	}()
	if err := <-first; err != nil {
		t.Fatalf("first submission: %v", err)
	}
	close(cache.release) // the second submission now joins the empty flight group
	res := <-second
	if evals.Load() != 1 {
		t.Fatalf("evaluations = %d, want 1 (the second submission re-evaluated)", evals.Load())
	}
	if res == nil || !res.Deduped {
		t.Fatalf("second submission = %+v, want a deduplicated answer", res)
	}
	if s := e.Stats(); s.Evaluations != 1 || s.Deduped != 1 || s.CacheMisses != 2 {
		t.Fatalf("stats evaluations/deduped/misses = %d/%d/%d, want 1/1/2", s.Evaluations, s.Deduped, s.CacheMisses)
	}
}
