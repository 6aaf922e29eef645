package cluster

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"kiter/internal/engine"
	"kiter/internal/faultinject"
	"kiter/internal/resultcodec"
	"kiter/internal/telemetry"
)

// cacheKeyHeader carries the cache key on /cluster/cache/get requests.
// Keys are fingerprint-derived ASCII a few hundred bytes long, well within
// header limits.
const cacheKeyHeader = "X-Kiter-Cache-Key"

// resultContentType is the media type of a resultcodec frame on the wire:
// the cache read endpoint and /cluster/evaluate always answer in it, and a
// forward rejects a reply in any other.
const resultContentType = "application/x-kiter-result"

// maxCacheBody caps one cache record on the wire, matching cachedisk's
// per-record payload cap.
const maxCacheBody = 64 << 20

// keyFingerprint extracts the routing fingerprint from a cache key
// (engine.cacheKey lays keys out as "fingerprint|knobs..."). Routing on
// the fingerprint rather than the whole key keeps cache placement aligned
// with dispatch placement: the replica that evaluates a fingerprint is the
// replica that owns its cached results.
func keyFingerprint(key string) string {
	if i := strings.IndexByte(key, '|'); i >= 0 {
		return key[:i]
	}
	return key
}

// RemoteCache is the fleet tier: a read-only engine.CacheBackend that
// lets a replica warm-start the shard it owns. Composed behind the local
// tiers — NewTieredCache(memory→disk, fleet) — it answers a local miss on
// a key this replica owns with one POST /cluster/cache/get at the key's
// ring successor: exactly the member that owned the key before this
// replica joined, so a freshly joined replica serves its own shard from
// the previous owner's cache instead of recomputing it. It asks only while
// the warm-start window is open: in steady state an owner miss makes none.
//
// Keys another member owns are an instant miss with no round trip: the
// engine forwards those jobs to their owner over /cluster/evaluate, and
// the owner answers from its own cache or evaluates, so asking its cache
// first would only be a second trip to the same process. The tier never
// writes: every result lives in the cache of the replica that evaluated
// it, which is the key's owner whenever the owner was reachable. The read
// rides the cluster's pooled transport behind the per-peer circuit
// breakers: an open breaker is an instant miss, never a stall.
type RemoteCache struct {
	c *Cluster

	hits, misses atomic.Uint64

	// kiter_cache_remote_* instruments. Hits and misses reach /metrics
	// through TierStats as kiter_cache_tier_{hits,misses}_total{tier="fleet"}.
	mErrors, mBytes *telemetry.Counter
	mRTT            *telemetry.HistogramVec
}

// The warm-start window opens when the Cluster starts and at every ring
// change (a peer's breaker opening or half-opening), and closes after
// windowRun consecutive 204s: a hit restarts the count, so the window
// stays open while the successor still holds keys this replica owns.
// Outside it the successor holds such a key only after a failover, or
// when it forwarded the key here and this replica has since evicted it.
// windowRun is sized from fleet-mixed runs that restarted a replica: in
// the two seconds after the restart, up to 119 consecutive 204s came
// before a hit (ROADMAP, direction 4).
const windowRun = 128

// window is the warm-start window: run counts the consecutive 204s since
// it opened. The zero value is open.
type window struct{ run atomic.Int64 }

func (w *window) open() { w.run.Store(0) }

func (w *window) isOpen() bool { return w.run.Load() < windowRun }

// NewRemoteCache builds the fleet tier over c's transport and ring. The
// returned backend is owned by the engine it is configured into; close
// the Cluster separately, after the engine.
func NewRemoteCache(c *Cluster) *RemoteCache {
	m := c.cfg.Metrics
	return &RemoteCache{
		c: c,
		mErrors: m.Counter("kiter_cache_remote_errors_total",
			"Fleet-tier reads that failed in transit."),
		mBytes: m.Counter("kiter_cache_remote_bytes_total",
			"Result bytes fleet-tier reads fetched from ring successors."),
		mRTT: m.HistogramVec("kiter_cache_remote_rtt_seconds",
			"Round-trip time of fleet-tier cache reads, in seconds.",
			telemetry.LatencyBuckets, "op"),
	}
}

// fetchOwner resolves where to read key from: for a key this replica
// owns, the ring successor that owned it before this replica joined; for
// any other key, "" — the forward to its owner asks that owner instead.
// Empty also means no live successor.
func (rc *RemoteCache) fetchOwner(key string) string {
	fp := keyFingerprint(key)
	if rc.c.Owner(fp) != rc.c.self {
		return ""
	}
	// Successor lookup: the owner of fp with self excluded from the ring.
	return rc.c.ring.owner(fp, func(m string) bool {
		return m != rc.c.self && rc.c.alive(m)
	})
}

// Get implements engine.CacheBackend: while the warm-start window is
// open, one breaker-guarded round trip to the successor of a key this
// replica owns. Every failure mode — no successor, open breaker, injected
// fault, transport error, corrupt frame — degrades to a miss; the caller
// then falls through to a local evaluation.
func (rc *RemoteCache) Get(key string) (*engine.Result, bool) {
	return rc.GetCtx(context.Background(), key)
}

// GetCtx is the context-aware Get the engine prefers
// (engine.CtxCacheBackend): the remote hop opens a child span under the
// request's trace, propagates the trace context to the successor, honors
// the caller's cancellation, and explains degrade paths as span events.
func (rc *RemoteCache) GetCtx(ctx context.Context, key string) (*engine.Result, bool) {
	if !rc.c.warm.isOpen() {
		return rc.miss()
	}
	succ := rc.fetchOwner(key)
	if succ == "" {
		return rc.miss()
	}
	gctx, span := telemetry.StartSpan(ctx, "cache.fleet.get")
	defer span.End()
	span.SetString("successor", succ)
	ps := rc.c.peer(succ)
	if ps == nil || !ps.breaker.Allow() {
		span.Event("breaker.open", "peer", succ)
		return rc.miss()
	}
	// Chaos seam: the fleet tier degrades with the same "dispatch.forward"
	// point the forwarding path uses — arming it severs the replica from
	// its peers, cache tier included, and everything must fall back to the
	// local tiers and local solves.
	if faultinject.Fire(faultinject.PointForward) != nil {
		span.Event("chaos.severed", "point", faultinject.PointForward, "peer", succ)
		return rc.miss()
	}
	start := time.Now()
	res, ok, err := rc.fetch(gctx, succ, key)
	rc.mRTT.With("get").Observe(time.Since(start).Seconds())
	if err != nil {
		rc.c.noteForwardFailure(ps)
		rc.mErrors.Add(1)
		span.SetString("error", err.Error())
		return rc.miss()
	}
	ps.breaker.Success()
	span.SetBool("hit", ok)
	if !ok {
		rc.c.warm.run.Add(1)
		return rc.miss()
	}
	rc.c.warm.run.Store(0)
	rc.hits.Add(1)
	return res, true
}

func (rc *RemoteCache) miss() (*engine.Result, bool) {
	rc.misses.Add(1)
	return nil, false
}

// fetch performs the GET round trip: 200 + frame is a hit, 204 a miss,
// anything else an error charged to the peer's breaker. The parent ctx
// supplies cancellation and trace context; the op timeout still applies.
func (rc *RemoteCache) fetch(parent context.Context, peer, key string) (*engine.Result, bool, error) {
	ctx, cancel := context.WithTimeout(parent, rc.c.opTimeout())
	defer cancel()
	resp, frame, err := rc.c.roundTrip(ctx, http.MethodPost, peer, "/cluster/cache/get",
		http.Header{cacheKeyHeader: {key}}, nil, maxCacheBody+1, http.StatusOK, http.StatusNoContent)
	if err != nil || resp.StatusCode == http.StatusNoContent {
		return nil, false, err
	}
	if len(frame) > maxCacheBody {
		return nil, false, fmt.Errorf("cluster: cache get from %s: frame too large", peer)
	}
	// Normalization marks the result fleet-origin (Peer set).
	res, err := decodeBinaryResult(frame, peer)
	if err != nil {
		return nil, false, err
	}
	rc.mBytes.Add(uint64(len(frame)))
	return res, true, nil
}

// Put implements engine.CacheBackend as a no-op: the fleet tier only
// reads. A result is cached where it was evaluated — at the owner for
// forwarded jobs, locally for the keys this replica owns.
func (rc *RemoteCache) Put(string, *engine.Result) {}

// PutCtx is the context-aware Put (engine.CtxCacheBackend); a no-op too.
func (rc *RemoteCache) PutCtx(context.Context, string, *engine.Result) {}

// opTimeout bounds one cache read or trace fetch. These are index lookups
// and byte copies, not analyses, so they get a fraction of the forward
// timeout — a slow peer must cost less than the recomputation it saves.
func (c *Cluster) opTimeout() time.Duration {
	t := c.cfg.ForwardTimeout
	if t <= 0 {
		return 5 * time.Second
	}
	if t /= 4; t > 5*time.Second {
		t = 5 * time.Second
	}
	return t
}

// Len implements engine.CacheBackend. The fleet's entry count lives on
// the owners; this tier reports 0 rather than a misleading guess.
func (rc *RemoteCache) Len() int { return 0 }

// Close implements engine.CacheBackend. The tier holds no resources of
// its own; the Cluster itself is not touched.
func (rc *RemoteCache) Close() error { return nil }

// TierStats reports the fleet tier on engine.Stats. The tier stores
// nothing, so it reports no entries or bytes; the volume its reads move
// is the counter kiter_cache_remote_bytes_total.
func (rc *RemoteCache) TierStats() []engine.CacheTierStats {
	return []engine.CacheTierStats{{
		Tier:   "fleet",
		Hits:   rc.hits.Load(),
		Misses: rc.misses.Load(),
	}}
}

// SetLocalCache hands the cluster the backend its cache handler serves
// from — the replica's local tiers (memory→disk), never the fleet tier
// itself, which would recurse. kiterd wires this before mounting the
// handler; a cluster without it answers every cache get with a miss.
func (c *Cluster) SetLocalCache(b engine.CacheBackend) {
	c.localCache.Store(&b)
}

func (c *Cluster) localBackend() engine.CacheBackend {
	if p := c.localCache.Load(); p != nil {
		return *p
	}
	return nil
}

// CacheGetHandler serves POST /cluster/cache/get: the successor side of
// the fleet tier's warm-start read. It consults the replica's local tiers
// only and replies 200 + resultcodec frame, or 204 on a miss, marking a
// trace span in r's context with the outcome.
func (c *Cluster) CacheGetHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		span := telemetry.FromContext(r.Context())
		if r.Method != http.MethodPost {
			WriteError(w, http.StatusMethodNotAllowed, "POST required")
			return
		}
		key := r.Header.Get(cacheKeyHeader)
		if key == "" {
			WriteError(w, http.StatusBadRequest, cacheKeyHeader+" required")
			return
		}
		var res *engine.Result
		if b := c.localBackend(); b != nil {
			res, _ = b.Get(key)
		}
		span.SetBool("hit", res != nil)
		if res == nil {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		w.Header().Set("Content-Type", resultContentType)
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(resultcodec.Encode(res))
	})
}
