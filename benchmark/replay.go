package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"kiter/internal/engine"
	"kiter/internal/resultcodec"
	"kiter/internal/sdf3x"
	"kiter/internal/sweep"
	"kiter/internal/telemetry"
)

// timedCache wraps kiterd's default memory cache and records a span around
// every Get and Put. Gets find their Submit span in the context; a Put runs
// on an engine worker under the job's own context, so it is kept by
// fingerprint until the request that caused it claims it.
type timedCache struct {
	inner engine.CacheBackend
	tr    *tracer
	puts  sync.Map // fingerprint → timedPut
}

type timedPut struct {
	start time.Time
	d     time.Duration
}

func (c *timedCache) Get(key string) (*engine.Result, bool) { return c.inner.Get(key) }
func (c *timedCache) Put(key string, res *engine.Result)    { c.inner.Put(key, res) }
func (c *timedCache) Len() int                              { return c.inner.Len() }
func (c *timedCache) Close() error                          { return c.inner.Close() }

func (c *timedCache) GetCtx(ctx context.Context, key string) (*engine.Result, bool) {
	if c.tr == nil {
		return c.inner.Get(key)
	}
	start := time.Now()
	res, ok := c.inner.Get(key)
	if ref, traced := spanFrom(ctx); traced {
		c.tr.add(ref.id, ref.req, "engine.cache_get", start, time.Since(start))
	}
	return res, ok
}

func (c *timedCache) PutCtx(_ context.Context, key string, res *engine.Result) {
	if c.tr == nil {
		c.inner.Put(key, res)
		return
	}
	start := time.Now()
	c.inner.Put(key, res)
	c.puts.Store(res.Fingerprint, timedPut{start, time.Since(start)})
}

// claimPut attaches the cache store of a freshly evaluated result to the
// span that waited for it.
func (c *timedCache) claimPut(parent int64, req uint64, res *engine.Result) {
	if c.tr == nil || res == nil || res.CacheHit || res.Deduped {
		return
	}
	if v, ok := c.puts.LoadAndDelete(res.Fingerprint); ok {
		p := v.(timedPut)
		c.tr.add(parent, req, "engine.cache_put", p.start, p.d)
	}
}

// replayer sends a workload's requests through the layers in-process, in
// the order kiterd calls them, with an engine built from kiterd's default
// configuration.
type replayer struct {
	wl    *workload
	tr    *tracer
	cache *timedCache
	e     *engine.Engine

	mu         sync.Mutex
	evalMS     []float64 // Result.ElapsedMS of evaluated answers
	answers    int       // sweep scenario answers
	hits       int       // of which from the memo cache
	codecBytes []float64 // encoded result sizes
}

func newReplayer(wl *workload, tr *tracer) *replayer {
	cache := &timedCache{inner: engine.NewMemoryCache(16, 4096), tr: tr}
	return &replayer{
		wl:    wl,
		tr:    tr,
		cache: cache,
		e: engine.New(engine.Config{
			CacheBackend: cache,
			Options:      referenceOptions,
			Metrics:      telemetry.NewRegistry(),
		}),
	}
}

func (r *replayer) close() { r.e.Close() }

// do replays one request.
func (r *replayer) do(ctx context.Context, req request) error {
	if req.path == "/sweep" {
		return r.sweep(ctx, req)
	}
	return r.analyze(ctx, req)
}

func (r *replayer) analyze(ctx context.Context, req request) error {
	tr, seq := r.tr, req.seq
	root, t0 := tr.begin()
	id, s := tr.begin()
	g, err := sdf3x.ReadJSON(bytes.NewReader(req.body))
	tr.end(id, root, seq, "sdf3x.ReadJSON", s)
	if err != nil {
		return err
	}
	id, s = tr.begin()
	err = g.Validate()
	tr.end(id, root, seq, "csdf.Validate", s)
	if err != nil {
		return err
	}
	id, s = tr.begin()
	_ = g.FingerprintHex()
	tr.end(id, root, seq, "csdf.FingerprintHex", s)

	id, s = tr.begin()
	res, err := r.e.Submit(withSpan(ctx, id, seq), &engine.Request{Graph: g})
	r.cache.claimPut(id, seq, res)
	tr.end(id, root, seq, "engine.Submit", s)
	if err != nil {
		return err
	}
	id, s = tr.begin()
	_, err = json.Marshal(struct {
		Result *engine.Result `json:"result"`
	}{res})
	tr.end(id, root, seq, "json.Marshal", s)
	tr.end(root, 0, seq, "request", t0)
	if err != nil {
		return err
	}
	r.record(res, false)
	return r.codec(seq, res)
}

func (r *replayer) sweep(ctx context.Context, req request) error {
	tr, seq := r.tr, req.seq
	root, t0 := tr.begin()
	id, s := tr.begin()
	spec, err := sweep.ParseSpec(req.body)
	tr.end(id, root, seq, "sweep.ParseSpec", s)
	if err != nil {
		return err
	}
	// kiterd's server defaults, as it applies them to every spec.
	spec.Method, spec.Analyses = string(engine.MethodRace), []string{string(engine.AnalysisThroughput)}
	// Compile parses the base with sdf3x.ReadJSON internally; the parse is
	// repeated here so the sdf3x layer gets its own span.
	id, s = tr.begin()
	_, err = sdf3x.ReadJSON(bytes.NewReader(spec.Base))
	tr.end(id, root, seq, "sdf3x.ReadJSON", s)
	if err != nil {
		return err
	}
	id, s = tr.begin()
	x, err := sweep.Compile(spec, false)
	tr.end(id, root, seq, "sweep.Compile", s)
	if err != nil {
		return err
	}
	// The runner materializes every scenario internally; materializing
	// each once more here times the step.
	for i := range x.Total() {
		id, s = tr.begin()
		_, err := x.Materialize(i)
		tr.end(id, root, seq, "sweep.Materialize", s)
		if err != nil {
			return err
		}
	}

	runID, runStart := tr.begin()
	type open struct {
		id    int64
		start time.Time
	}
	var mu sync.Mutex
	scenarios := map[int]open{}
	runner := sweep.Runner{Engine: r.e, PointTimeout: time.Minute}
	if tr != nil {
		runner.MemberContext = func(ctx context.Context, i int) context.Context {
			id, s := tr.begin()
			mu.Lock()
			scenarios[i] = open{id, s}
			mu.Unlock()
			return withSpan(ctx, id, seq)
		}
	}
	var codecErr error
	emit := func(p sweep.Point) error {
		mu.Lock()
		sc, ok := scenarios[p.Scenario]
		delete(scenarios, p.Scenario)
		mu.Unlock()
		if ok {
			r.cache.claimPut(sc.id, seq, p.Result)
			tr.end(sc.id, runID, seq, "sweep.scenario", sc.start)
		}
		id, s := tr.begin()
		_, err := json.Marshal(p)
		tr.end(id, root, seq, "json.Marshal", s)
		if err != nil {
			return err
		}
		if p.Error != "" {
			return fmt.Errorf("scenario %d: %s", p.Scenario, p.Error)
		}
		r.record(p.Result, true)
		if err := r.codec(seq, p.Result); err != nil && codecErr == nil {
			codecErr = err
		}
		return nil
	}
	env, err := runner.Run(ctx, x, emit)
	tr.end(runID, root, seq, "sweep.Runner.Run", runStart)
	if err != nil {
		return err
	}
	id, s = tr.begin()
	_, err = json.Marshal(struct {
		Envelope *sweep.Envelope `json:"envelope"`
	}{env})
	tr.end(id, root, seq, "json.Marshal", s)
	tr.end(root, 0, seq, "request", t0)
	if err != nil {
		return err
	}
	return codecErr
}

// record notes what the engine did for one answer.
func (r *replayer) record(res *engine.Result, scenario bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !res.CacheHit && !res.Deduped {
		r.evalMS = append(r.evalMS, res.ElapsedMS)
	}
	if scenario {
		r.answers++
		if res.CacheHit {
			r.hits++
		}
	}
}

// codec round-trips a result through the binary codec the disk tier and
// the fleet wire use. Its spans are roots of their own: the codec is not
// on a single-node request's path.
func (r *replayer) codec(seq uint64, res *engine.Result) error {
	start := time.Now()
	buf := resultcodec.Encode(res)
	mid := time.Now()
	_, err := resultcodec.Decode(buf)
	end := time.Now()
	r.tr.add(0, seq, "resultcodec.Encode", start, mid.Sub(start))
	r.tr.add(0, seq, "resultcodec.Decode", mid, end.Sub(mid))
	r.mu.Lock()
	r.codecBytes = append(r.codecBytes, float64(len(buf)))
	r.mu.Unlock()
	return err
}

// drive replays requests seq = 0, 1, … with the given number of
// goroutines: the first limit of them, or (limit < 0) as many as start
// before the deadline. It returns how many ran and the wall time.
func (r *replayer) drive(ctx context.Context, clients int, limit int64, deadline time.Time) (int64, time.Duration, error) {
	var next atomic.Int64
	var first error
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if limit < 0 && !time.Now().Before(deadline) {
					return
				}
				i := next.Add(1) - 1
				if limit >= 0 && i >= limit {
					return
				}
				if err := r.do(ctx, r.wl.request(uint64(i))); err != nil {
					mu.Lock()
					if first == nil {
						first = fmt.Errorf("replaying request %d: %w", i, err)
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	n := next.Load()
	if limit >= 0 {
		n = min(n, limit)
	}
	return n, time.Since(start), first
}

// prime fills the replay engine's memo cache with the warm pool, untraced.
func (r *replayer) prime(ctx context.Context, clients int) error {
	pool := r.wl.warmPool()
	tr := r.tr
	r.tr, r.cache.tr = nil, nil
	defer func() { r.tr, r.cache.tr = tr, tr }()
	var next atomic.Int64
	errs := make(chan error, clients)
	for range clients {
		go func() {
			for {
				i := next.Add(1) - 1
				if i >= int64(len(pool)) {
					errs <- nil
					return
				}
				if err := r.analyze(ctx, pool[i]); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	var first error
	for range clients {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	r.mu.Lock()
	r.evalMS, r.codecBytes = nil, nil
	r.mu.Unlock()
	return first
}

// replayMetrics replays the workload in-process, traced for half the
// window and then untraced on the same inputs, writes the spans to
// trace-<workload>.json and derives the replayed layers' metrics.
func replayMetrics(s settings, wl *workload, v map[string]float64) error {
	ctx := context.Background()
	tr := newTracer()
	rp := newReplayer(wl, tr)
	defer rp.close()
	if err := rp.prime(ctx, s.clients); err != nil {
		return err
	}
	before := rp.e.Stats()
	n, tracedWall, err := rp.drive(ctx, s.clients, -1, time.Now().Add(s.window/2))
	if err != nil {
		return err
	}
	d := rp.e.Stats().Delta(before)

	plain := newReplayer(wl, nil)
	defer plain.close()
	if err := plain.prime(ctx, s.clients); err != nil {
		return err
	}
	_, plainWall, err := plain.drive(ctx, s.clients, n, time.Time{})
	if err != nil {
		return err
	}
	v["bench.trace_overhead"] = tracedWall.Seconds() / plainWall.Seconds()
	if err := os.MkdirAll(s.out, 0o755); err != nil {
		return err
	}
	if err := tr.write(filepath.Join(s.out, "trace-"+wl.name+".json"), wl.name, wl.seed); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "benchmark: %s: replayed %d requests, %d spans\n", wl.name, n, len(tr.spans))

	byName := map[string][]float64{} // µs
	var submitSelf []float64         // µs
	self := selfTimes(tr.spans)
	for _, sp := range tr.spans {
		byName[sp.Name] = append(byName[sp.Name], us(sp.dur()))
		// Sweep scenarios are submitted by the runner; their spans stand
		// for Engine.Submit.
		if sp.Name == "engine.Submit" || sp.Name == "sweep.scenario" {
			submitSelf = append(submitSelf, us(self[sp.ID]))
		}
	}
	submit := append(append([]float64(nil), byName["engine.Submit"]...), byName["sweep.scenario"]...)
	p50 := func(name string) float64 { return quantile(byName[name], 0.5) }
	p99 := func(name string) float64 { return quantile(byName[name], 0.99) }
	read, err := readJSONAllocs(wl, 200)
	if err != nil {
		return err
	}
	for k, x := range map[string]float64{
		"kiterd.encode_us.p50":      p50("json.Marshal"),
		"sdf3x.read_json_us.p50":    p50("sdf3x.ReadJSON"),
		"sdf3x.read_json_us.p99":    p99("sdf3x.ReadJSON"),
		"sdf3x.read_json_allocs":    read,
		"sdf3x.read_json_share":     ratio(sum(byName["sdf3x.ReadJSON"]), sum(byName["request"])),
		"csdf.validate_us.p50":      p50("csdf.Validate"),
		"csdf.fingerprint_us.p50":   p50("csdf.FingerprintHex"),
		"engine.submit_ms.p50":      quantile(submit, 0.5) / 1000,
		"engine.submit_ms.p99":      quantile(submit, 0.99) / 1000,
		"engine.self_ms.p50":        quantile(submitSelf, 0.5) / 1000,
		"engine.cache_get_us.p50":   p50("engine.cache_get"),
		"engine.cache_get_us.p99":   p99("engine.cache_get"),
		"engine.cache_put_us.p50":   p50("engine.cache_put"),
		"engine.cache_hit_ratio":    d.HitRate,
		"engine.dedup_ratio":        ratio(float64(d.Deduped), float64(d.Submitted)),
		"engine.eval_ms.p50":        quantile(rp.evalMS, 0.5),
		"engine.eval_ms.p99":        quantile(rp.evalMS, 0.99),
		"engine.queue_wait_ms.p99":  rp.e.QueueWaitQuantile(0.99) * 1000,
		"engine.race_starved_ratio": ratio(float64(d.RaceStarved), float64(d.Evaluations)),
		"engine.race_wins.kiter":    float64(d.RaceWins["kiter"]),
		"engine.race_wins.periodic": float64(d.RaceWins["periodic"]),
		"engine.race_wins.symbolic": float64(d.RaceWins["symbolic"]),
		"engine.rejected":           float64(d.Rejected),
		"sweep.parse_us.p50":        p50("sweep.ParseSpec"),
		"sweep.compile_us.p50":      p50("sweep.Compile"),
		"sweep.materialize_us.p50":  p50("sweep.Materialize"),
		"sweep.run_ms.p50":          p50("sweep.Runner.Run") / 1000,
		"sweep.run_ms.p99":          p99("sweep.Runner.Run") / 1000,
		"sweep.hit_ratio":           ratio(float64(rp.hits), float64(rp.answers)),
		"resultcodec.encode_us.p50": p50("resultcodec.Encode"),
		"resultcodec.decode_us.p50": p50("resultcodec.Decode"),
		"resultcodec.bytes.mean":    mean(rp.codecBytes),
	} {
		v[k] = x
	}
	return nil
}

// readJSONAllocs measures heap allocations per sdf3x.ReadJSON call over the
// first n bodies of the workload, on one goroutine while nothing else runs.
func readJSONAllocs(wl *workload, n int) (float64, error) {
	bodies := make([][]byte, n)
	for i := range bodies {
		req := wl.request(uint64(i))
		bodies[i] = req.body
		if req.path == "/sweep" {
			spec, err := sweep.ParseSpec(req.body)
			if err != nil {
				return 0, err
			}
			bodies[i] = spec.Base
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, b := range bodies {
		if _, err := sdf3x.ReadJSON(bytes.NewReader(b)); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n), nil
}
