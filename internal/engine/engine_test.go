package engine

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kiter/internal/csdf"
	"kiter/internal/gen"
	"kiter/internal/kperiodic"
)

func newTestEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e := New(cfg)
	t.Cleanup(e.Close)
	return e
}

func figure2Result(t *testing.T) string {
	t.Helper()
	res, err := kperiodic.KIter(gen.Figure2(), kperiodic.Options{})
	if err != nil {
		t.Fatalf("reference KIter: %v", err)
	}
	return res.Period.String()
}

// TestSubmitThroughputRace: the default method answers with K-Iter's
// certified optimum, and "race", its former name, is the same method: it
// shares the default's cache entry.
func TestSubmitThroughputRace(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 2})
	res, err := e.Submit(context.Background(), &Request{Graph: gen.Figure2()})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if res.Throughput == nil || res.Throughput.Error != "" {
		t.Fatalf("no throughput section: %+v", res)
	}
	if !res.Throughput.Optimal || res.Throughput.Method != MethodKIter {
		t.Fatalf("default method result = %+v, want K-Iter's certified optimum", res.Throughput)
	}
	if want := figure2Result(t); res.Throughput.Period != want {
		t.Fatalf("period = %s, want %s", res.Throughput.Period, want)
	}
	if res.CacheHit || res.Deduped {
		t.Fatalf("first submission flagged cacheHit=%v deduped=%v", res.CacheHit, res.Deduped)
	}
	again, err := e.Submit(context.Background(), &Request{Graph: gen.Figure2(), Method: MethodRace})
	if err != nil {
		t.Fatalf("Submit race: %v", err)
	}
	if !again.CacheHit {
		t.Fatal("method race missed the default method's cache entry")
	}
}

func TestSubmitAllMethodsAgree(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 2})
	want := figure2Result(t)
	for _, m := range []Method{MethodKIter, MethodExpansion, MethodSymbolic} {
		res, err := e.Submit(context.Background(), &Request{Graph: gen.Figure2(), Method: m})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if res.Throughput.Period != want {
			t.Fatalf("%s: period = %s, want %s", m, res.Throughput.Period, want)
		}
		if !res.Throughput.Optimal {
			t.Fatalf("%s: not optimal", m)
		}
	}
}

func TestSubmitCacheHit(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 2})
	first, err := e.Submit(context.Background(), &Request{Graph: gen.Figure2()})
	if err != nil {
		t.Fatal(err)
	}
	// A renamed but structurally identical graph must hit the cache.
	clone := gen.Figure2()
	clone.Name = "renamed"
	second, err := e.Submit(context.Background(), &Request{Graph: clone})
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Fatal("second submission missed the cache")
	}
	if second.Graph != "renamed" {
		t.Fatalf("cached result kept stale name %q", second.Graph)
	}
	if second.Throughput.Period != first.Throughput.Period {
		t.Fatal("cache returned a different result")
	}
	s := e.Stats()
	if s.CacheHits != 1 || s.Evaluations != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 evaluation", s)
	}
	if s.HitRate <= 0 || s.HitRate > 1 {
		t.Fatalf("hit rate %v out of range", s.HitRate)
	}
}

func TestSubmitNoCache(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 2})
	for i := 0; i < 2; i++ {
		res, err := e.Submit(context.Background(), &Request{Graph: gen.Figure2(), NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.CacheHit {
			t.Fatal("NoCache submission hit the cache")
		}
	}
	if s := e.Stats(); s.Evaluations != 2 {
		t.Fatalf("evaluations = %d, want 2", s.Evaluations)
	}
}

// TestSingleflightDedup proves that concurrent identical submissions
// trigger exactly one evaluation: the instrumented evalFn blocks until all
// submitters have joined, so each of them must be riding the same call.
func TestSingleflightDedup(t *testing.T) {
	const submitters = 16
	e := newTestEngine(t, Config{Workers: 4})
	var evals atomic.Int64
	joined := make(chan struct{}, submitters)
	release := make(chan struct{})
	inner := e.evalFn
	e.evalFn = func(ctx context.Context, req *Request) (*Result, error) {
		evals.Add(1)
		<-release
		return inner(ctx, req)
	}

	var wg sync.WaitGroup
	results := make([]*Result, submitters)
	errs := make([]error, submitters)
	for i := 0; i < submitters; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			joined <- struct{}{}
			results[i], errs[i] = e.Submit(context.Background(), &Request{Graph: gen.Figure2()})
		}()
	}
	for i := 0; i < submitters; i++ {
		<-joined
	}
	// All submitters are in flight (or cache-missed and queued) now.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()

	if n := evals.Load(); n != 1 {
		t.Fatalf("evaluations = %d, want exactly 1", n)
	}
	deduped := 0
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("submitter %d: %v", i, errs[i])
		}
		if results[i].Throughput == nil {
			t.Fatalf("submitter %d: empty result", i)
		}
		if results[i].Deduped {
			deduped++
		}
	}
	if deduped != submitters-1 {
		t.Fatalf("deduped = %d, want %d", deduped, submitters-1)
	}
	if s := e.Stats(); s.Deduped != submitters-1 {
		t.Fatalf("stats.Deduped = %d, want %d", s.Deduped, submitters-1)
	}
}

// TestAbandonedJobCancelled proves the waiter-refcounted job context: when
// every submitter gives up, the in-flight evaluation's context fires.
func TestAbandonedJobCancelled(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1})
	jobCancelled := make(chan struct{})
	e.evalFn = func(ctx context.Context, req *Request) (*Result, error) {
		<-ctx.Done()
		close(jobCancelled)
		return nil, ctx.Err()
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := e.Submit(ctx, &Request{Graph: gen.Figure2()})
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Submit returned %v, want context.Canceled", err)
	}
	select {
	case <-jobCancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("job context was not cancelled after all waiters left")
	}
}

// TestRaceCancellation: cancelling the submission context aborts a job
// under the default method (submitted by its former name, race)
// mid-analysis — the solvers' inner-loop cancellation hooks return
// promptly instead of running to their budgets.
func TestRaceCancellation(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 4})
	// A large-transient graph: heavy enough that K-Iter does not finish
	// instantly, so the cancel lands mid-analysis.
	g := gen.LgTransient(1, 42).Graphs[0]
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := e.Submit(ctx, &Request{Graph: g, Method: MethodRace})
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) && err != nil {
			// The job may legitimately have finished before the cancel.
			t.Fatalf("Submit returned unexpected error %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled job did not return within 10s")
	}
}

func TestSubmitDeadlockGraph(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 2})
	res, err := e.Submit(context.Background(), &Request{Graph: gen.DeadlockedRing()})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if res.Throughput == nil || res.Throughput.Error == "" {
		t.Fatalf("deadlock not reported: %+v", res.Throughput)
	}
	if !res.Throughput.Optimal {
		t.Fatal("deadlock verdict should be certified")
	}
}

func TestSubmitMultipleAnalyses(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 2})
	res, err := e.Submit(context.Background(), &Request{
		Graph:    gen.Figure2(),
		Analyses: []AnalysisKind{AnalysisThroughput, AnalysisSchedule, AnalysisSymbolic, AnalysisSizing},
		Method:   MethodKIter,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput == nil || res.Schedule == nil || res.Symbolic == nil || res.Sizing == nil {
		t.Fatalf("missing sections: %+v", res)
	}
	if res.Schedule.Error != "" || res.Symbolic.Error != "" || res.Sizing.Error != "" {
		t.Fatalf("section errors: %+v %+v %+v", res.Schedule, res.Symbolic, res.Sizing)
	}
	if res.Throughput.Period != res.Symbolic.Period {
		t.Fatalf("K-Iter period %s != symbolic period %s", res.Throughput.Period, res.Symbolic.Period)
	}
	if len(res.Sizing.Capacities) != gen.Figure2().NumBuffers() {
		t.Fatalf("sizing returned %d capacities for %d buffers", len(res.Sizing.Capacities), gen.Figure2().NumBuffers())
	}
}

// TestSymbolicReusedForThroughput: when one job requests both the
// symbolic analysis and the default throughput method, the exact symbolic
// answer is reused as the throughput instead of running the chain.
func TestSymbolicReusedForThroughput(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 2})
	res, err := e.Submit(context.Background(), &Request{
		Graph:    gen.Figure2(),
		Analyses: []AnalysisKind{AnalysisThroughput, AnalysisSymbolic},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput.Method != MethodSymbolic || !res.Throughput.Optimal {
		t.Fatalf("throughput = %+v, want reused optimal symbolic result", res.Throughput)
	}
	if res.Throughput.Period != res.Symbolic.Period {
		t.Fatalf("sections disagree: %s vs %s", res.Throughput.Period, res.Symbolic.Period)
	}

	dead, err := e.Submit(context.Background(), &Request{
		Graph:    gen.DeadlockedRing(),
		Analyses: []AnalysisKind{AnalysisThroughput, AnalysisSymbolic},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := dead.Throughput
	if tr == nil || !tr.Optimal || tr.Throughput != "0" || tr.Error == "" {
		t.Fatalf("deadlock reuse = %+v, want certified throughput 0", tr)
	}
}

func TestSubmitValidationAndErrors(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1})
	if _, err := e.Submit(context.Background(), nil); err == nil {
		t.Fatal("nil request accepted")
	}
	if _, err := e.Submit(context.Background(), &Request{Graph: csdf.NewGraph("empty")}); err == nil {
		t.Fatal("empty graph accepted")
	}
	if _, err := e.Submit(context.Background(), &Request{Graph: gen.Figure2(), Method: "bogus"}); err == nil {
		t.Fatal("bogus method accepted")
	}
	if _, err := e.Submit(context.Background(), &Request{Graph: gen.Figure2(), Analyses: []AnalysisKind{"bogus"}}); err == nil {
		t.Fatal("bogus analysis accepted")
	}
}

func TestSubmitAfterClose(t *testing.T) {
	e := New(Config{Workers: 1})
	e.Close()
	if _, err := e.Submit(context.Background(), &Request{Graph: gen.Figure2()}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close: %v, want ErrClosed", err)
	}
}

// TestSubmitCloseRace: submissions racing Close must either complete or
// fail with ErrClosed — never hang on a job stranded in the queue after
// the drain loop exits.
func TestSubmitCloseRace(t *testing.T) {
	for round := 0; round < 20; round++ {
		e := New(Config{Workers: 2})
		e.evalFn = func(ctx context.Context, req *Request) (*Result, error) {
			return &Result{}, nil
		}
		const submitters = 8
		var wg sync.WaitGroup
		for i := 0; i < submitters; i++ {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Distinct structures so nothing coalesces or caches.
				g := gen.HSDFRing(2+i%4, []int64{int64(1 + i)}, 1)
				_, err := e.Submit(context.Background(), &Request{Graph: g, NoCache: true})
				if err != nil && !errors.Is(err, ErrClosed) {
					t.Errorf("Submit: %v", err)
				}
			}()
		}
		e.Close()
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("a submitter hung across Close")
		}
	}
}

// TestWorkerSlotsBoundConcurrency: with Workers slots, distinct blocking
// submissions never evaluate more than Workers at once, and every one of
// them finishes once the evaluations are released.
func TestWorkerSlotsBoundConcurrency(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 2})
	release := make(chan struct{})
	var running, peak atomic.Int32
	e.evalFn = func(ctx context.Context, req *Request) (*Result, error) {
		n := running.Add(1)
		defer running.Add(-1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		<-release
		return &Result{}, nil
	}
	const submitters = 8
	errs := make(chan error, submitters)
	for i := 0; i < submitters; i++ {
		g := gen.HSDFRing(2, []int64{int64(1 + i)}, 1)
		go func() {
			_, err := e.Submit(context.Background(), &Request{Graph: g, NoCache: true})
			errs <- err
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for e.PendingJobs() < submitters || running.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("pending %d, running %d: submissions never queued up", e.PendingJobs(), running.Load())
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // give a third evaluation the chance to start
	close(release)
	for i := 0; i < submitters; i++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatalf("Submit: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a submission never finished after release")
		}
	}
	if p := peak.Load(); p != 2 {
		t.Fatalf("peak concurrent evaluations = %d, want 2", p)
	}
}

// TestCloseFinishesRunningFailsWaiting pins Close's contract on a one-slot
// engine: the running job completes with its result before Close returns,
// the job waiting for the slot fails with ErrClosed, and a second Close
// returns at once.
func TestCloseFinishesRunningFailsWaiting(t *testing.T) {
	e := New(Config{Workers: 1})
	release := make(chan struct{})
	started := make(chan struct{}, 2)
	e.evalFn = func(ctx context.Context, req *Request) (*Result, error) {
		started <- struct{}{}
		select {
		case <-release:
			return &Result{}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	submit := func(g *csdf.Graph) chan error {
		errc := make(chan error, 1)
		go func() {
			_, err := e.Submit(context.Background(), &Request{Graph: g, NoCache: true})
			errc <- err
		}()
		return errc
	}
	running := submit(gen.Figure2())
	<-started
	waiting := submit(gen.SampleRateConverter())
	for e.PendingJobs() < 2 {
		time.Sleep(time.Millisecond)
	}
	closed := make(chan struct{})
	go func() { e.Close(); close(closed) }()
	select {
	case err := <-waiting:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("waiting job: %v, want ErrClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("waiting job not failed by Close")
	}
	select {
	case <-closed:
		t.Fatal("Close returned while a job was still running")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	select {
	case err := <-running:
		if err != nil {
			t.Fatalf("running job: %v, want its result", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("running job never finished")
	}
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return after the running job finished")
	}
	if len(started) != 0 {
		t.Fatal("the waiting job was evaluated after Close")
	}
	second := make(chan struct{})
	go func() { e.Close(); close(second) }()
	select {
	case <-second:
	case <-time.After(10 * time.Second):
		t.Fatal("second Close blocked")
	}
}

// TestMethodIgnoredWithoutThroughput: Method only affects the throughput
// analysis, so non-throughput requests must share one cache entry across
// methods.
func TestMethodIgnoredWithoutThroughput(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 2})
	ctx := context.Background()
	first, err := e.Submit(ctx, &Request{Graph: gen.Figure2(), Analyses: []AnalysisKind{AnalysisSymbolic}})
	if err != nil {
		t.Fatal(err)
	}
	second, err := e.Submit(ctx, &Request{Graph: gen.Figure2(), Analyses: []AnalysisKind{AnalysisSymbolic}, Method: MethodKIter})
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Fatal("method choice split the cache for a non-throughput request")
	}
	if first.Symbolic.Period != second.Symbolic.Period {
		t.Fatal("cache returned a different result")
	}
}

func TestOverload(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1, MaxPending: 1})
	release := make(chan struct{})
	started := make(chan struct{})
	e.evalFn = func(ctx context.Context, req *Request) (*Result, error) {
		close(started)
		<-release
		return &Result{}, nil
	}
	go e.Submit(context.Background(), &Request{Graph: gen.Figure2()})
	<-started
	// A structurally different graph cannot dedup onto the first job.
	_, err := e.Submit(context.Background(), &Request{Graph: gen.SampleRateConverter()})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overloaded Submit: %v, want ErrOverloaded", err)
	}
	close(release)
}

// TestOverloadFailsWaiters: a rejected leader must fail the whole flight
// call, not orphan it — waiters that joined in the window between join and
// the overload check would otherwise hang forever on a never-enqueued job.
func TestOverloadFailsWaiters(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1, MaxPending: 1})
	release := make(chan struct{})
	started := make(chan struct{})
	e.evalFn = func(ctx context.Context, req *Request) (*Result, error) {
		close(started)
		<-release
		return &Result{}, nil
	}
	defer close(release)
	go e.Submit(context.Background(), &Request{Graph: gen.Figure2()})
	<-started

	const submitters = 8
	errs := make(chan error, submitters)
	for i := 0; i < submitters; i++ {
		go func() {
			_, err := e.Submit(context.Background(), &Request{Graph: gen.SampleRateConverter()})
			errs <- err
		}()
	}
	for i := 0; i < submitters; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrOverloaded) {
				t.Fatalf("submitter returned %v, want ErrOverloaded", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a waiter hung on an orphaned flight call")
		}
	}
}

// TestPeriodicDeadlockDefinitive: a certified deadlock found by the
// 1-periodic method settles a single-method request (and a chain step)
// just like one found by K-Iter.
func TestPeriodicDeadlockDefinitive(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 2})
	res, err := e.Submit(context.Background(), &Request{Graph: gen.DeadlockedRing(), Method: MethodPeriodic})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	tr := res.Throughput
	if tr == nil || tr.Error == "" || !tr.Optimal || tr.Throughput != "0" {
		t.Fatalf("periodic deadlock verdict = %+v, want certified throughput 0", tr)
	}
}

// TestEvictionEndToEnd: a capacity-1 cache holds only the latest result.
func TestEvictionEndToEnd(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 2, CacheCapacity: 1})
	ctx := context.Background()
	if _, err := e.Submit(ctx, &Request{Graph: gen.Figure2(), Method: MethodKIter}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Submit(ctx, &Request{Graph: gen.SampleRateConverter(), Method: MethodKIter}); err != nil {
		t.Fatal(err)
	}
	// Figure2 was evicted by the second entry: resubmission re-evaluates.
	res, err := e.Submit(ctx, &Request{Graph: gen.Figure2(), Method: MethodKIter})
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHit {
		t.Fatal("evicted entry served as a cache hit")
	}
	if s := e.Stats(); s.Evaluations != 3 || s.CacheEntries != 1 {
		t.Fatalf("stats = %+v, want 3 evaluations and 1 entry", s)
	}
}

// TestSubmitFacts checks the facts a caller hands in: facts, alone or
// with the graph they describe, give the answer the engine computes from
// the graph alone, with and without capacities applied, and a request
// whose Graph and Facts disagree is rejected.
func TestSubmitFacts(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1, CacheCapacity: -1})
	facts := func(g *csdf.Graph) *csdf.Facts {
		f, err := csdf.NewFacts(g)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	fig2 := gen.Figure2()
	bounded := fig2.ScaleCapacities(1)
	analyses := []AnalysisKind{AnalysisThroughput, AnalysisSchedule, AnalysisSymbolic}
	for _, c := range []struct {
		name       string
		g          *csdf.Graph
		f          *csdf.Facts
		capacities bool
	}{
		{"graph and facts", fig2, facts(fig2), false},
		{"facts alone", nil, facts(fig2), false},
		{"graph and facts, capacities", bounded, facts(bounded), true},
		{"facts alone, capacities", nil, facts(bounded), true},
	} {
		want, err := e.Submit(context.Background(), &Request{Graph: c.f.Graph(), Analyses: analyses, ApplyCapacities: c.capacities})
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.Submit(context.Background(), &Request{Graph: c.g, Facts: c.f, Analyses: analyses, ApplyCapacities: c.capacities})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Throughput, want.Throughput) || !reflect.DeepEqual(got.Schedule, want.Schedule) ||
			!reflect.DeepEqual(got.Symbolic, want.Symbolic) || got.Fingerprint != want.Fingerprint || got.Graph != want.Graph {
			t.Errorf("%s: %+v %+v, want %+v %+v", c.name, got.Throughput, got.Schedule, want.Throughput, want.Schedule)
		}
	}
	for _, g := range []*csdf.Graph{csdf.NewGraph("empty"), gen.HSDFRing(3, []int64{2, 5, 1}, 1)} {
		if _, err := e.Submit(context.Background(), &Request{Graph: g, Facts: facts(fig2)}); err == nil {
			t.Errorf("graph %q with another graph's facts was accepted", g.Name)
		}
	}
}

// TestSubmitKeepsAnalyses checks that Submit never modifies the caller's
// analysis list, whether it repeats a kind, is out of order, is already
// canonical or is empty, and that lists naming the same kinds share one
// cache entry.
func TestSubmitKeepsAnalyses(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1})
	g := gen.Figure2()
	for i, c := range []struct {
		analyses []AnalysisKind
		hit      bool
	}{
		{[]AnalysisKind{AnalysisThroughput, AnalysisSchedule, AnalysisThroughput}, false},
		{[]AnalysisKind{AnalysisSchedule, AnalysisThroughput}, true},
		{nil, false},
		{[]AnalysisKind{AnalysisThroughput}, true},
	} {
		before := slices.Clone(c.analyses)
		res, err := e.Submit(context.Background(), &Request{Graph: g, Analyses: c.analyses})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(c.analyses, before) || (c.analyses == nil) != (before == nil) {
			t.Errorf("case %d: Submit changed the analysis list %v to %v", i, before, c.analyses)
		}
		if res.CacheHit != c.hit {
			t.Errorf("case %d: cacheHit = %v, want %v", i, res.CacheHit, c.hit)
		}
	}
}

// TestCapacitiesCacheHitComputesNoFacts checks that a cache hit stays
// free of graph facts when capacities are applied: the bounded graph's
// facts are derived only when a job evaluates it. The baseline is a hit
// on the bounded graph's own facts, which Submit uses as they are and,
// however eager, computes at most once; a capacities hit may allocate
// only that and the facts it builds, for the bounded graph and, when the
// request carries none, for the graph. A repetition vector or components
// computed on Submit would allocate on every hit.
func TestCapacitiesCacheHitComputesNoFacts(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1})
	g := gen.Figure2().ScaleCapacities(1)
	f, err := csdf.NewFacts(g)
	if err != nil {
		t.Fatal(err)
	}
	boundedFacts, err := f.WithCapacities()
	if err != nil {
		t.Fatal(err)
	}
	hit := func(req *Request) float64 {
		submit := func() {
			res, err := e.Submit(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			if !res.CacheHit {
				t.Fatal("want a cache hit")
			}
		}
		submit()
		return testing.AllocsPerRun(50, submit)
	}
	for _, req := range []*Request{{Graph: g, ApplyCapacities: true}, {Facts: boundedFacts}} {
		if _, err := e.Submit(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	base := hit(&Request{Facts: boundedFacts})
	bound := testing.AllocsPerRun(20, func() { f.WithCapacities() })
	validate := testing.AllocsPerRun(20, func() { csdf.NewFacts(g) })
	if with := hit(&Request{Facts: f, ApplyCapacities: true}); with > base+bound {
		t.Errorf("a capacities cache hit with facts allocates %.0f objects, want ≤ %.0f + %.0f", with, base, bound)
	}
	if without := hit(&Request{Graph: g, ApplyCapacities: true}); without > base+validate+bound {
		t.Errorf("a capacities cache hit without facts allocates %.0f objects, want ≤ %.0f + %.0f + %.0f", without, base, validate, bound)
	}
}
