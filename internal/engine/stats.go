package engine

import "kiter/internal/telemetry"

// instruments are the engine's telemetry: registry instruments that GET
// /metrics renders and Stats reads, so each signal is counted in one
// place. Every counter is atomic: the serving path never takes a lock to
// account.
type instruments struct {
	// The counters behind Stats' fields of the same names.
	submitted, cacheHits, cacheMisses, deduped, evaluations, remote *telemetry.Counter
	errors, cancelled, rejected, panics                             *telemetry.Counter
	// answers counts the default method's answers per chain step, indexed
	// like chainSteps: the children of kiter_race_wins_total.
	answers [len(chainSteps)]*telemetry.Counter

	// queueWait is the time a local leader job waited for a worker slot.
	queueWait *telemetry.Histogram
	// evaluation is slot→done for successful evaluations; its sum and
	// count are Stats' MeanLatencyMS and LatencySamples.
	evaluation *telemetry.Histogram
	// cacheLookup times CacheBackend.Get (a disk-tier hit pays a decode).
	cacheLookup *telemetry.Histogram
	// solve is per-method solver wall time, labeled by method; under the
	// default method every chain step that runs observes.
	solve *telemetry.HistogramVec
	// kiterRounds is K-Iter's Algorithm 1 round count per solve;
	// howardIters the total Howard policy-improvement rounds per solve.
	kiterRounds *telemetry.Histogram
	howardIters *telemetry.Histogram
	// arcsBuilt/arcsReused count incremental-expansion arc work.
	arcsBuilt  *telemetry.Counter
	arcsReused *telemetry.Counter
}

// newInstruments registers e's instruments in m, together with the
// scrape-time families read from e's live state: the pool and cache
// gauges and the cache tiers' report.
func newInstruments(m *telemetry.Registry, e *Engine) instruments {
	in := instruments{
		submitted:   m.Counter("kiter_engine_submitted_total", "Submit calls accepted by the engine."),
		cacheHits:   m.Counter("kiter_engine_cache_hits_total", "Submissions answered from the memo cache."),
		cacheMisses: m.Counter("kiter_engine_cache_misses_total", "Submissions that missed the memo cache."),
		deduped:     m.Counter("kiter_engine_deduped_total", "Submissions coalesced onto an in-flight identical job."),
		evaluations: m.Counter("kiter_engine_evaluations_total", "Jobs computed by local workers."),
		remote:      m.Counter("kiter_engine_remote_results_total", "Jobs answered by a cluster peer."),
		errors:      m.Counter("kiter_engine_errors_total", "Failed evaluations."),
		cancelled:   m.Counter("kiter_engine_cancelled_total", "Abandoned evaluations."),
		rejected:    m.Counter("kiter_engine_rejected_total", "Submissions shed under overload."),
		panics: m.Counter("kiter_panics_total",
			"Solver panics recovered into job errors (also counted under errors)."),
		queueWait: m.Histogram("kiter_engine_queue_wait_seconds",
			"Time a job waited for a worker slot, in seconds.", telemetry.LatencyBuckets),
		evaluation: m.Histogram("kiter_engine_evaluation_seconds",
			"Wall time of successful evaluations, in seconds.", telemetry.LatencyBuckets),
		cacheLookup: m.Histogram("kiter_engine_cache_lookup_seconds",
			"Memo-cache lookup time (all tiers), in seconds.", telemetry.LatencyBuckets),
		solve: m.HistogramVec("kiter_solver_solve_seconds",
			"Per-method throughput solve time, in seconds.", telemetry.LatencyBuckets, "method"),
		kiterRounds: m.Histogram("kiter_solver_kiter_rounds",
			"K-Iter Algorithm 1 rounds per solve.", telemetry.CountBuckets),
		howardIters: m.Histogram("kiter_solver_howard_iterations",
			"Howard policy-improvement rounds per solve (summed over K-Iter rounds).", telemetry.CountBuckets),
		arcsBuilt: m.Counter("kiter_solver_arcs_built_total",
			"Constraint arcs built from phase pairs during expansion."),
		arcsReused: m.Counter("kiter_solver_arcs_reused_total",
			"Constraint arcs replayed from a previous round's block cache."),
	}
	wins := m.CounterVec("kiter_race_wins_total", "Default-method throughput answers per fallback-chain step.", "method")
	for i, step := range chainSteps {
		in.answers[i] = wins.With(string(step))
	}
	m.Gauge("kiter_engine_workers", "Configured worker pool size.",
		func() float64 { return float64(e.cfg.Workers) })
	m.Gauge("kiter_engine_pending", "Jobs submitted but not yet finished.",
		func() float64 { return float64(e.pending.Load()) })
	m.Gauge("kiter_engine_cache_entries", "Memoized results currently stored (summed over tiers).",
		func() float64 { return float64(e.cacheEntries()) })
	m.Collect(e.exposeTiers)
	return in
}

// exposeTiers renders the cache backend's tier report, when it gives one,
// as the kiter_cache_tier_* families.
func (e *Engine) exposeTiers(x *telemetry.ExpoWriter) {
	tiers := e.cacheTiers()
	if len(tiers) == 0 {
		return
	}
	family := func(name, typ, help string, value func(t CacheTierStats) float64) {
		x.Family(name, typ, help)
		for _, t := range tiers {
			x.Sample(name, value(t), "tier", t.Tier)
		}
	}
	family("kiter_cache_tier_hits_total", "counter", "Memo-cache lookups served by this tier.",
		func(t CacheTierStats) float64 { return float64(t.Hits) })
	family("kiter_cache_tier_misses_total", "counter", "Memo-cache lookups that missed this tier.",
		func(t CacheTierStats) float64 { return float64(t.Misses) })
	family("kiter_cache_tier_entries", "gauge", "Entries currently stored in this tier.",
		func(t CacheTierStats) float64 { return float64(t.Entries) })
	family("kiter_cache_tier_bytes", "gauge", "Storage footprint of this tier, in bytes.",
		func(t CacheTierStats) float64 { return float64(t.Bytes) })
}

// cacheEntries is the number of memoized results, summed over tiers.
func (e *Engine) cacheEntries() int {
	if e.cache == nil {
		return 0
	}
	return e.cache.Len()
}

// cacheTiers is the cache backend's per-tier report, nil when it gives
// none.
func (e *Engine) cacheTiers() []CacheTierStats {
	if ts, ok := e.cache.(TierStatser); ok {
		return ts.TierStats()
	}
	return nil
}

// Stats is a point-in-time snapshot of the engine's telemetry.
type Stats struct {
	// Submitted counts Submit calls; CacheHits the ones answered from the
	// memo cache; Deduped the ones coalesced onto an in-flight job.
	Submitted   uint64 `json:"submitted"`
	CacheHits   uint64 `json:"cacheHits"`
	CacheMisses uint64 `json:"cacheMisses"`
	Deduped     uint64 `json:"deduped"`
	// Evaluations counts jobs actually computed by workers on this
	// replica; RemoteResults the jobs answered by a cluster peer through
	// the Dispatcher instead.
	Evaluations   uint64 `json:"evaluations"`
	RemoteResults uint64 `json:"remoteResults"`
	// ClaimsGranted and ClaimsServed are always zero: the engine makes no
	// cross-process claims; the owner's singleflight behind the forward
	// hop is the fleet's only dedup.
	//
	// Deprecated: kept so that code written against the claiming engine
	// still compiles; they will be removed.
	ClaimsGranted uint64 `json:"claimsGranted,omitempty"`
	ClaimsServed  uint64 `json:"claimsServed,omitempty"`
	// Errors counts failed evaluations, Cancelled abandoned ones and
	// Rejected submissions refused under overload.
	Errors    uint64 `json:"errors"`
	Cancelled uint64 `json:"cancelled"`
	Rejected  uint64 `json:"rejected"`
	// Panics counts solver panics recovered by the isolation layer (worker
	// evaluations and steps of the default method's chain). A panicking
	// evaluation failed its job with a PanicError instead of crashing the
	// process and also counts under Errors; a panicking chain step only
	// hands the job to the next step.
	Panics uint64 `json:"panics"`
	// HitRate is CacheHits / (CacheHits + CacheMisses), in [0, 1].
	HitRate float64 `json:"hitRate"`
	// MeanLatencyMS is the mean wall-clock evaluation time over
	// LatencySamples successful evaluations. Cancelled and failed jobs are
	// excluded — a fast-aborting cancellation would otherwise drag the
	// mean below what completed work actually costs — so Evaluations
	// exceeds LatencySamples by the jobs in flight plus the
	// cancelled/errored ones.
	MeanLatencyMS  float64 `json:"meanLatencyMs"`
	LatencySamples uint64  `json:"latencySamples"`
	// CacheEntries is the current number of memoized results, summed over
	// tiers for tiered backends (a promoted entry counts in each tier
	// holding it).
	CacheEntries int `json:"cacheEntries"`
	// CacheTiers carries per-tier hit/miss/size telemetry when the cache
	// backend reports it (always for the default memory cache and the
	// tiered memory→disk composition); nil otherwise.
	CacheTiers []CacheTierStats `json:"cacheTiers,omitempty"`
	// Workers and Pending describe the pool: configured worker count and
	// jobs submitted but not yet finished; MaxPending is the
	// load-shedding threshold (0 = unbounded).
	Workers    int `json:"workers"`
	Pending    int `json:"pending"`
	MaxPending int `json:"maxPending"`
	// RaceWins counts the default method's throughput answers by the
	// chain step that produced them: kiter, symbolic or periodic. The name
	// dates from when the three methods raced each other.
	RaceWins map[string]uint64 `json:"raceWins"`
	// RaceStarved is always zero: the chain runs its steps one after
	// another on the job's own worker and never waits for spare workers.
	//
	// Deprecated: kept so that code written against the racing engine
	// still compiles; it will be removed.
	RaceStarved uint64 `json:"raceStarved,omitempty"`
	// Cluster carries per-peer forward/serve/failover telemetry when the
	// engine dispatches through a cluster (nil on a standalone replica).
	Cluster []PeerStats `json:"cluster,omitempty"`
}

// sub subtracts windowed counters with an underflow clamp. Snapshots are
// not atomic across fields: Stats loads each counter separately, so two
// snapshots racing concurrent traffic (a /metrics scrape during a sweep, a
// prev taken by another goroutine) can observe individual counters in an
// order where a-b would wrap to ~2^64. A clamped zero is an honest "no
// movement visible in this window"; a wrapped counter is garbage that
// breaks every downstream rate computation.
func sub(a, b uint64) uint64 {
	if a < b {
		return 0
	}
	return a - b
}

// Delta returns the counter movement from prev to s — the per-run view a
// sweep or batch reports in its closing summary. Monotonic counters are
// subtracted (clamped at zero, see sub); HitRate and MeanLatencyMS are
// recomputed over the window; point-in-time gauges (CacheEntries, Workers,
// Pending, MaxPending) keep s's values. prev must be an earlier snapshot
// of the same engine.
func (s Stats) Delta(prev Stats) Stats {
	d := Stats{
		Submitted:     sub(s.Submitted, prev.Submitted),
		CacheHits:     sub(s.CacheHits, prev.CacheHits),
		CacheMisses:   sub(s.CacheMisses, prev.CacheMisses),
		Deduped:       sub(s.Deduped, prev.Deduped),
		Evaluations:   sub(s.Evaluations, prev.Evaluations),
		RemoteResults: sub(s.RemoteResults, prev.RemoteResults),
		Errors:        sub(s.Errors, prev.Errors),
		Cancelled:     sub(s.Cancelled, prev.Cancelled),
		Rejected:      sub(s.Rejected, prev.Rejected),
		Panics:        sub(s.Panics, prev.Panics),
		CacheEntries:  s.CacheEntries,
		Workers:       s.Workers,
		Pending:       s.Pending,
		MaxPending:    s.MaxPending,
		RaceWins:      make(map[string]uint64, len(s.RaceWins)),
	}
	for k, v := range s.RaceWins {
		d.RaceWins[k] = sub(v, prev.RaceWins[k])
	}
	// Per-peer counters subtract like the top-level ones (peers matched by
	// address, absent-from-prev deltas from zero); Healthy is a gauge and
	// keeps s's view.
	if len(s.Cluster) > 0 {
		prevPeer := make(map[string]PeerStats, len(prev.Cluster))
		for _, p := range prev.Cluster {
			prevPeer[p.Peer] = p
		}
		d.Cluster = make([]PeerStats, 0, len(s.Cluster))
		for _, p := range s.Cluster {
			q := prevPeer[p.Peer]
			p.Forwarded = sub(p.Forwarded, q.Forwarded)
			p.FailedOver = sub(p.FailedOver, q.FailedOver)
			p.Served = sub(p.Served, q.Served)
			p.Probes = sub(p.Probes, q.Probes)
			p.Retried = sub(p.Retried, q.Retried)
			p.BreakerOpens = sub(p.BreakerOpens, q.BreakerOpens)
			d.Cluster = append(d.Cluster, p)
		}
	}
	// Per-tier counters subtract like the top-level ones; Entries/Bytes
	// are gauges and keep s's values. Tiers are matched by name, so a
	// tier absent from prev (e.g. stats enabled mid-run) deltas from zero.
	if len(s.CacheTiers) > 0 {
		prevTier := make(map[string]CacheTierStats, len(prev.CacheTiers))
		for _, t := range prev.CacheTiers {
			prevTier[t.Tier] = t
		}
		d.CacheTiers = make([]CacheTierStats, 0, len(s.CacheTiers))
		for _, t := range s.CacheTiers {
			p := prevTier[t.Tier]
			t.Hits = sub(t.Hits, p.Hits)
			t.Misses = sub(t.Misses, p.Misses)
			d.CacheTiers = append(d.CacheTiers, t)
		}
	}
	if lookups := d.CacheHits + d.CacheMisses; lookups > 0 {
		d.HitRate = float64(d.CacheHits) / float64(lookups)
	}
	// Mean latency over the window, reconstructed from the cumulative
	// means over *finished* evaluations (LatencySamples, not Evaluations —
	// the latter counts in-flight jobs whose latency is not yet recorded).
	d.LatencySamples = sub(s.LatencySamples, prev.LatencySamples)
	if d.LatencySamples > 0 {
		d.MeanLatencyMS = (s.MeanLatencyMS*float64(s.LatencySamples) -
			prev.MeanLatencyMS*float64(prev.LatencySamples)) / float64(d.LatencySamples)
		if d.MeanLatencyMS < 0 { // float cancellation on near-equal sums
			d.MeanLatencyMS = 0
		}
	}
	return d
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() Stats {
	m := &e.met
	hits, misses := m.cacheHits.Value(), m.cacheMisses.Value()
	s := Stats{
		Submitted:     m.submitted.Value(),
		CacheHits:     hits,
		CacheMisses:   misses,
		Deduped:       m.deduped.Value(),
		Evaluations:   m.evaluations.Value(),
		RemoteResults: m.remote.Value(),
		Errors:        m.errors.Value(),
		Cancelled:     m.cancelled.Value(),
		Rejected:      m.rejected.Value(),
		Panics:        m.panics.Value(),
		CacheEntries:  e.cacheEntries(),
		CacheTiers:    e.cacheTiers(),
		Workers:       e.cfg.Workers,
		Pending:       int(e.pending.Load()),
		MaxPending:    max(e.cfg.MaxPending, 0),
		RaceWins:      make(map[string]uint64, len(chainSteps)),
	}
	for i, step := range chainSteps {
		s.RaceWins[string(step)] = m.answers[i].Value()
	}
	if hits+misses > 0 {
		s.HitRate = float64(hits) / float64(hits+misses)
	}
	if ds, ok := e.cfg.Dispatcher.(DispatchStatser); ok {
		s.Cluster = ds.DispatchStats()
	}
	// The sum is read before the count: Observe counts a sample before it
	// adds the sample to the sum, so the count covers every sample in the
	// sum, and under concurrent traffic the mean can under-report slightly
	// but never averages in time for samples it does not count. (The two
	// reads are still separate; a snapshot is consistent-enough, not
	// transactional, which is why Delta clamps.)
	secs := m.evaluation.Sum()
	if n := m.evaluation.Count(); n > 0 {
		s.LatencySamples = n
		s.MeanLatencyMS = secs / float64(n) * 1e3
	}
	return s
}
