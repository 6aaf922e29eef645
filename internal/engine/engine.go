package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"kiter/internal/csdf"
	"kiter/internal/kperiodic"
	"kiter/internal/symbexec"
	"kiter/internal/telemetry"
)

// Config tunes an Engine.
type Config struct {
	// Workers is the number of evaluation slots (default: GOMAXPROCS). A
	// local job holds one slot for its whole evaluation, every analysis of
	// it included, so at most Workers jobs evaluate at once; the rest wait
	// for a slot in arrival order.
	Workers int
	// CacheCapacity is the total memo-cache size in entries (default
	// 4096; negative disables caching). Ignored when CacheBackend is set.
	CacheCapacity int
	// CacheBackend overrides the memo cache entirely (nil keeps the
	// default in-process sharded LRU built from CacheCapacity). The
	// engine takes ownership: Engine.Close closes the
	// backend. Compose tiers with NewTieredCache — e.g. memory over an
	// internal/cachedisk store — to share results across restarts.
	CacheBackend CacheBackend
	// MaxPending bounds jobs submitted but not yet finished; beyond it
	// Submit fails fast with ErrOverloaded (default 16·(Workers+1),
	// negative disables the bound).
	MaxPending int
	// Options are the guard rails passed to every K-periodic evaluation.
	Options kperiodic.Options
	// Symbolic are the budgets passed to every symbolic execution.
	Symbolic symbexec.Options
	// Dispatcher, when set, gets first claim on every leader job before it
	// reaches the local worker pool — the cluster seam (internal/cluster
	// forwards non-local jobs to their ring owner). Nil keeps every job
	// local. The engine does not own the Dispatcher; close it after Close.
	Dispatcher Dispatcher
	// Metrics is the registry the engine registers its instruments in:
	// the counters and gauges behind Stats, its latency histograms and its
	// solver-phase instruments (queue wait, per-method solve time, K-Iter
	// rounds, Howard iterations, arcs built/reused), all rendered by
	// GET /metrics. The engine registers them in New, so a Registry serves
	// at most one Engine. Nil gives the engine a private registry: Stats,
	// QueueWaitQuantile and everything that reads them behave the same
	// with or without one.
	Metrics *telemetry.Registry
}

func (cfg Config) withDefaults() Config {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.CacheCapacity == 0 {
		cfg.CacheCapacity = 4096
	}
	if cfg.MaxPending == 0 {
		cfg.MaxPending = 16 * (cfg.Workers + 1)
	}
	return cfg
}

// Engine is the concurrent analysis engine. Create one with New, feed it
// with Submit from any number of goroutines, and Close it when done.
type Engine struct {
	cfg Config
	// slots holds one token per evaluating job; its capacity is Workers.
	// Leaders blocked sending into it are the engine's only queue.
	slots  chan struct{}
	cache  CacheBackend // nil when caching is disabled
	flight *flightGroup

	pending atomic.Int64
	closed  chan struct{}
	// shutdownCtx mirrors closed as a context, so dispatches blocked on
	// network I/O (which take contexts, not channels) die promptly when
	// the engine closes instead of stalling Close for a forward timeout.
	shutdownCtx context.Context
	shutdown    context.CancelFunc
	once        sync.Once

	// evalFn computes a job's result; replaced in tests to observe
	// scheduling behaviour without paying for real analyses.
	evalFn func(ctx context.Context, req *Request) (*Result, error)

	// met holds the engine's telemetry, registered in Config.Metrics or
	// in a private registry.
	met instruments
}

// job couples a request with the flight call its waiters share.
type job struct {
	req  *Request
	call *flightCall
	// ctx is the evaluation context: the flight's jobCtx, wrapped with the
	// submitter's trace span when the request is traced. Cancellation
	// always flows from jobCtx.
	ctx context.Context
	// finished is set by finishJob; only the leader's goroutine touches it.
	finished bool
}

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("engine: closed")

// ErrOverloaded is returned by Submit when MaxPending jobs are in flight;
// callers should shed load (HTTP 503) or retry with backoff.
var ErrOverloaded = errors.New("engine: too many pending jobs")

// New builds an engine with cfg's worker slots. It starts no goroutine,
// and neither does Submit: each leader job runs on its submitter's
// goroutine until it finishes.
func New(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	cache := cfg.CacheBackend
	if cache == nil {
		cache = NewMemoryCache(16, cfg.CacheCapacity)
	}
	e := &Engine{
		cfg:    cfg,
		slots:  make(chan struct{}, cfg.Workers),
		cache:  cache,
		flight: newFlightGroup(),
		closed: make(chan struct{}),
	}
	e.shutdownCtx, e.shutdown = context.WithCancel(context.Background())
	reg := cfg.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	e.met = newInstruments(reg, e)
	e.evalFn = e.evaluate
	return e
}

// Close stops the engine: jobs already holding a worker slot complete
// normally (their contexts are not cancelled, so their waiters still get
// results), in-flight Dispatcher forwards are cancelled and fail with
// ErrClosed, jobs still waiting for a slot fail with ErrClosed, and Close
// returns once every job has been resolved one way or the other and the
// cache backend is closed. Later calls return at once. Submit calls racing
// with Close may either complete or report ErrClosed (backends treat
// post-Close Get/Put as no-op misses, so such stragglers are safe).
func (e *Engine) Close() {
	e.once.Do(func() {
		close(e.closed)
		e.shutdown()
		// Holding every slot means every running evaluation has finished;
		// the jobs left in pending are waiters and dispatches that observe
		// closed on their own.
		for range cap(e.slots) {
			e.slots <- struct{}{}
		}
		for e.pending.Load() != 0 {
			runtime.Gosched()
		}
		if e.cache != nil {
			_ = e.cache.Close()
		}
	})
}

// Submit analyzes the request's graph, deduplicating against identical in-flight
// submissions and memoizing completed results. It blocks until the result
// is available, ctx is done, or the engine is closed/overloaded. The
// returned Result must be treated as immutable.
//
// The submission that starts an evaluation (the leader) runs it on its own
// goroutine; identical submissions arriving meanwhile wait for its result.
// When ctx ends, a waiter returns ctx.Err() at once. So does the leader
// when no waiter is left, after the evaluation it abandons has stopped.
// If other waiters remain, the evaluation runs on for them, and the
// leader's Submit returns ctx.Err() only once that evaluation has ended.
func (e *Engine) Submit(ctx context.Context, req *Request) (*Result, error) {
	e.met.submitted.Inc()
	if req == nil || (req.Graph == nil && req.Facts == nil) {
		return nil, errors.New("engine: nil request or graph")
	}
	analyses := req.normalize()
	for _, a := range analyses {
		if !ValidAnalysis(a) {
			return nil, fmt.Errorf("engine: unknown analysis %q", a)
		}
	}
	method := req.Method
	if method == "" || method == MethodRace {
		method = MethodAuto
	}
	if !ValidMethod(method) {
		return nil, fmt.Errorf("engine: unknown method %q", method)
	}
	facts := req.Facts
	var err error
	if facts == nil {
		if facts, err = csdf.NewFacts(req.Graph); err != nil {
			return nil, err
		}
	} else if req.Graph != nil && req.Graph != facts.Graph() {
		return nil, errors.New("engine: request Graph and Facts describe different graphs")
	}
	g := facts.Graph()
	select {
	case <-e.closed:
		return nil, ErrClosed
	default:
	}

	// The prepared request the workers see: capacities applied up front
	// so the fingerprint keys the structure that is actually analyzed.
	// The bounded graph's facts are derived lazily from g's, so a
	// cache hit computes none.
	if req.ApplyCapacities {
		if facts, err = facts.WithCapacities(); err != nil {
			return nil, fmt.Errorf("engine: applying capacities: %w", err)
		}
	}
	prepared := &Request{
		Analyses: analyses,
		Method:   method,
		Facts:    facts,
	}
	fingerprint := facts.Graph().FingerprintHex()
	// Method only affects the throughput analysis: keep it out of the
	// key otherwise, so identical non-throughput work coalesces and
	// caches regardless of the (irrelevant) method a caller picked.
	keyMethod := method
	if !slices.Contains(analyses, AnalysisThroughput) {
		keyMethod = ""
	}
	key := cacheKey(fingerprint, analyses, keyMethod, req.ApplyCapacities)

	span := telemetry.FromContext(ctx)
	span.SetString("fingerprint", fingerprint)
	span.SetString("method", string(method))
	useCache := !req.NoCache && e.cache != nil
	var generation uint64
	if useCache {
		generation = e.flight.generation(key)
		lookupStart := time.Now()
		res, ok := cacheGet(ctx, e.cache, key)
		lookupDur := time.Since(lookupStart)
		e.met.cacheLookup.Observe(lookupDur.Seconds())
		if span != nil {
			span.Record("cache.lookup", lookupStart, lookupDur)
			span.SetBool("cacheHit", ok)
		}
		if ok {
			e.met.cacheHits.Inc()
			out := res.shallowCopy()
			out.Graph = g.Name
			out.CacheHit = true
			return out, nil
		}
		e.met.cacheMisses.Inc()
	}

	c, leader := e.flight.join(key)
	if leader && useCache && e.flight.generation(key) != generation {
		// A call for this key may have stored its result and left the
		// flight group between the lookup above and the join, so neither
		// saw it: look again before evaluating a second time. A hit
		// completes the new call (and any waiter that joined it) as a
		// deduplicated answer.
		if res, ok := cacheGet(ctx, e.cache, key); ok {
			e.flight.finish(c, res, nil)
			leader = false
		}
	}
	if leader {
		if e.cfg.MaxPending > 0 && e.pending.Load() >= int64(e.cfg.MaxPending) {
			e.met.rejected.Inc()
			// Fail the whole call, not just this submitter: a waiter may
			// have joined since join(), and leaving would strand it (and
			// every later submission of this key) on a job that is never
			// launched.
			e.flight.finish(c, nil, ErrOverloaded)
			return nil, ErrOverloaded
		}
		e.pending.Add(1)
		// Re-check closed after raising pending: either Close's final
		// wait observes our increment and waits until this job is
		// finished, or its pending read preceded the increment — in which
		// case closed is already observable here and the job never
		// launches. Without this ordering a job launched after Close
		// returned could still reach the Dispatcher and the closed cache.
		select {
		case <-e.closed:
			e.finishJob(&job{req: prepared, call: c}, nil, ErrClosed)
			return nil, ErrClosed
		default:
		}
		prepared.NoCache = req.NoCache
		prepared.cacheKeyHint = key
		prepared.fingerprintHint = fingerprint
		// The leader's trace span rides into the evaluation context, so
		// solver phases attach below the submitter that started the job.
		// Deduped waiters share the result, not the tree. Cancellation
		// still flows from jobCtx alone.
		jctx := c.jobCtx
		if span != nil {
			jctx = telemetry.ContextWithSpan(jctx, span)
		}
		// Offer the job to the Dispatcher (cluster forwarding) unless the
		// request pinned itself local: forwarded arrivals set NoForward so
		// routing is capped at one hop even when replicas' health views
		// disagree about who owns a key.
		var djob *DispatchJob
		if e.cfg.Dispatcher != nil && !req.NoForward {
			djob = &DispatchJob{
				Graph:           g,
				Analyses:        analyses,
				Method:          method,
				ApplyCapacities: req.ApplyCapacities,
				NoCache:         req.NoCache,
				Fingerprint:     fingerprint,
			}
		}
		// The leader departs like any waiter: the last one to leave
		// cancels jobCtx and the evaluation aborts. Until then it runs on
		// this goroutine, whose stack has already grown. A context that
		// can never end needs no departure hook.
		j := &job{req: prepared, call: c, ctx: jctx}
		if ctx.Done() == nil {
			e.safeLaunch(j, djob)
		} else {
			stop := context.AfterFunc(ctx, func() { e.flight.leave(c) })
			e.safeLaunch(j, djob)
			if !stop() {
				return nil, ctx.Err()
			}
		}
	} else {
		e.met.deduped.Inc()
		span.SetBool("deduped", true)
	}

	select {
	case <-c.done:
		if c.err != nil {
			return nil, c.err
		}
		out := c.res.shallowCopy()
		out.Graph = g.Name
		out.Deduped = !leader
		return out, nil
	case <-ctx.Done():
		e.flight.leave(c)
		return nil, ctx.Err()
	}
}

// PendingJobs returns the jobs submitted but not yet finished — the live
// load signal admission control reads on every request (Stats() allocates
// a full snapshot and is too heavy for that path).
func (e *Engine) PendingJobs() int { return int(e.pending.Load()) }

// WorkerCount returns the configured evaluation pool size.
func (e *Engine) WorkerCount() int { return e.cfg.Workers }

// QueueWaitQuantile returns the q-quantile of the observed worker-slot
// waits in seconds, from the kiter_engine_queue_wait_seconds histogram;
// 0 before the first observation.
func (e *Engine) QueueWaitQuantile(q float64) float64 {
	return e.met.queueWait.Quantile(q)
}

// runLocal evaluates a job under a worker slot, giving up when every
// waiter abandoned it or the engine closed before a slot became free.
func (e *Engine) runLocal(j *job) {
	start := time.Now()
	select {
	case e.slots <- struct{}{}:
	case <-j.call.jobCtx.Done():
		e.finishJob(j, nil, j.call.jobCtx.Err())
		return
	case <-e.closed:
		e.finishJob(j, nil, ErrClosed)
		return
	}
	defer func() { <-e.slots }()
	// Close takes priority over a free slot: select picks randomly when
	// both are ready, so check closed explicitly before evaluating.
	select {
	case <-e.closed:
		e.finishJob(j, nil, ErrClosed)
		return
	default:
	}
	wait := time.Since(start)
	e.met.queueWait.Observe(wait.Seconds())
	telemetry.FromContext(j.evalCtx()).Record("queue.wait", start, wait)
	e.runJob(j)
}

// evalCtx returns the context evaluations run under: the span-carrying
// wrapper when the job is traced, the bare flight context otherwise.
func (j *job) evalCtx() context.Context {
	if j.ctx != nil {
		return j.ctx
	}
	return j.call.jobCtx
}

// runJob computes one job and publishes its outcome to every waiter.
func (e *Engine) runJob(j *job) {
	ctx := j.evalCtx()
	if err := ctx.Err(); err != nil {
		e.finishJob(j, nil, err)
		return
	}
	e.met.evaluations.Inc()
	start := time.Now()
	res, err := e.safeEval(ctx, j.req)
	elapsed := time.Since(start)
	switch {
	case err == nil:
		// Latency counts successful evaluations only, as MeanLatencyMS
		// documents: folding in cancelled jobs (often aborted in
		// microseconds) or failures would skew the mean of the work the
		// engine actually completed.
		e.met.evaluation.Observe(elapsed.Seconds())
		res.ElapsedMS = float64(elapsed) / float64(time.Millisecond)
		if !j.req.NoCache && e.cache != nil {
			cachePut(ctx, e.cache, j.req.cacheKeyHint, res)
		}
	case contextual(err):
		e.met.cancelled.Inc()
	default:
		e.met.errors.Inc()
	}
	e.finishJob(j, res, err)
}

// finishJob releases the pending slot, then completes the flight call.
// The order matters: finish wakes the waiters, and a woken submitter may
// immediately Submit again — if pending were still holding this job's
// slot, that submission could observe a stale count at MaxPending and be
// spuriously rejected.
func (e *Engine) finishJob(j *job, res *Result, err error) {
	j.finished = true
	e.pending.Add(-1)
	e.flight.finish(j.call, res, err)
}
