package engine

import "sync/atomic"

// counters holds the engine's hot-path telemetry. Everything is atomic:
// the serving path never takes a lock to account.
type counters struct {
	submitted    atomic.Uint64
	cacheHits    atomic.Uint64
	cacheMisses  atomic.Uint64
	deduped      atomic.Uint64
	evaluations  atomic.Uint64
	remote       atomic.Uint64
	errors       atomic.Uint64
	cancelled    atomic.Uint64
	rejected     atomic.Uint64
	panics       atomic.Uint64
	latencyNanos atomic.Int64
	latencyCount atomic.Uint64

	// answers counts the default method's answers per chain step, indexed
	// like chainSteps.
	answers [len(chainSteps)]atomic.Uint64
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
	hits := e.stats.cacheHits.Load()
	misses := e.stats.cacheMisses.Load()
	entries := 0
	if e.cache != nil {
		entries = e.cache.Len()
	}
	s := Stats{
		Submitted:     e.stats.submitted.Load(),
		CacheHits:     hits,
		CacheMisses:   misses,
		Deduped:       e.stats.deduped.Load(),
		Evaluations:   e.stats.evaluations.Load(),
		RemoteResults: e.stats.remote.Load(),
		Errors:        e.stats.errors.Load(),
		Cancelled:     e.stats.cancelled.Load(),
		Rejected:      e.stats.rejected.Load(),
		Panics:        e.stats.panics.Load(),
		CacheEntries:  entries,
		Workers:       e.cfg.Workers,
		Pending:       int(e.pending.Load()),
		MaxPending:    max(e.cfg.MaxPending, 0),
		RaceWins:      make(map[string]uint64, len(chainSteps)),
	}
	for i, m := range chainSteps {
		s.RaceWins[string(m)] = e.stats.answers[i].Load()
	}
	if hits+misses > 0 {
		s.HitRate = float64(hits) / float64(hits+misses)
	}
	if ts, ok := e.cache.(TierStatser); ok {
		s.CacheTiers = ts.TierStats()
	}
	if ds, ok := e.cfg.Dispatcher.(DispatchStatser); ok {
		s.Cluster = ds.DispatchStats()
	}
	// latencyNanos is loaded before latencyCount: runJob adds nanos first,
	// so in this order the count can only include samples whose nanos are
	// already visible — the quotient under-reports slightly under
	// concurrent traffic rather than averaging phantom time. (The loads
	// are still two separate atomics; a snapshot is consistent-enough, not
	// transactional, which is why Delta clamps.)
	nanos := e.stats.latencyNanos.Load()
	if n := e.stats.latencyCount.Load(); n > 0 {
		s.LatencySamples = n
		s.MeanLatencyMS = float64(nanos) / float64(n) / 1e6
	}
	return s
}
