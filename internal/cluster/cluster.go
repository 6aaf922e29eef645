// Package cluster turns N kiterd replicas into one analysis fleet with no
// dependencies beyond net/http. Each replica consistently hashes every
// job's structural fingerprint onto the member ring (self + -peers) and
// forwards non-local jobs to their owner over POST /cluster/evaluate; the
// owner runs them through its own engine, so its singleflight and memo
// cache deduplicate identical work submitted anywhere in the fleet.
// /cluster/evaluate is the only RPC that answers for a key. The only other
// per-key traffic is the fleet cache tier's read-only POST /cluster/cache/get
// at the ring successor, made when a replica misses a key it owns itself
// while ownership is new (after start or a ring change) — which lets a
// freshly joined replica warm-start its shard from the member that owned
// it before (see RemoteCache).
//
// The dedup guarantee: duplicate submissions cost one evaluation
// fleet-wide while the key's owner is reachable, and each forward that
// fails over to local evaluation may cost one more.
//
// The subsystem degrades to a single replica gracefully: a forward that
// fails or times out is retried once after a jittered backoff (forwarded
// evaluations are pure analysis, so a double send is idempotent) and then
// falls back to transparent local evaluation. Each peer sits behind a
// circuit breaker: consecutive forward failures past a threshold open it,
// dropping the peer out of the ring (its keys spill to ring successors);
// the health prober re-probes open breakers with exponential backoff and a
// passing /healthz half-opens the peer, letting one trial forward decide
// between closing the breaker and re-opening it. Routing is capped at one
// hop — forwarded arrivals are pinned local — so diverging health views
// can cost locality, never loops.
package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"kiter/internal/engine"
	"kiter/internal/faultinject"
	"kiter/internal/resilience"
	"kiter/internal/telemetry"
)

// peerHeader carries the sender's advertised address on forwarded
// requests, so the owner can attribute its served counters.
const peerHeader = "X-Kiter-Peer"

// Config tunes a Cluster.
type Config struct {
	// Self is this replica's advertised address (host:port). Every replica
	// must appear under exactly the same string in its peers' lists —
	// addresses are ring identities, not just dial targets.
	Self string
	// Peers lists the other replicas' advertised addresses. Self is
	// filtered out, so the full fleet list can be shared verbatim.
	Peers []string
	// ForwardTimeout bounds one forwarded evaluation end to end; beyond it
	// the job falls back to local evaluation. Zero picks the 60s default
	// (match the serving timeout, since the owner is doing real analysis
	// work); negative means no limit, for fleets serving unbounded
	// analyses.
	ForwardTimeout time.Duration
	// ProbeInterval is the base health-probe backoff for an unhealthy peer
	// (default 1s); consecutive failures double it up to MaxProbeInterval
	// (default 30s). ProbeTimeout bounds one probe (default 2s).
	ProbeInterval    time.Duration
	MaxProbeInterval time.Duration
	ProbeTimeout     time.Duration
	// BreakerThreshold is the consecutive forward failures that open a
	// peer's circuit breaker, dropping it out of the ring until a probe
	// half-opens it again (default 3, minimum 1).
	BreakerThreshold int
	// RetryBackoff is the base delay before a failed forward's single
	// retry; the actual sleep is jittered to [base/2, 3*base/2) so
	// synchronized failures do not retry in lockstep (default 25ms).
	RetryBackoff time.Duration
	// Workers sizes the forwarding transport's per-peer connection pool:
	// the engine can have up to Workers evaluations in flight, and under a
	// sweep most of them forward to the same owner replica, so the
	// transport keeps that many idle connections per host instead of
	// net/http's DefaultTransport 2 (which churns a dial + TIME_WAIT per
	// request past 2 concurrent forwards). Zero defaults to GOMAXPROCS,
	// matching the engine's own worker default.
	Workers int
	// Client overrides the forwarding HTTP client (tests). When nil, a
	// client over a dedicated transport sized by Workers is built.
	Client *http.Client
	// Metrics is the registry the cluster registers its instruments in:
	// the per-peer kiter_cluster_* counters and breaker families, the
	// forward-RTT histogram and the fleet cache tier's instruments. Nil
	// gives the cluster a private registry, so DispatchStats reports the
	// same counters with or without one.
	Metrics *telemetry.Registry
}

func (cfg Config) withDefaults() Config {
	if cfg.ForwardTimeout == 0 {
		cfg.ForwardTimeout = 60 * time.Second
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = time.Second
	}
	if cfg.MaxProbeInterval <= 0 {
		cfg.MaxProbeInterval = 30 * time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 2 * time.Second
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = 3
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 25 * time.Millisecond
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Transport: newTransport(cfg.Workers, len(cfg.Peers))}
	}
	if cfg.Metrics == nil {
		cfg.Metrics = telemetry.NewRegistry()
	}
	return cfg
}

// newTransport builds the forwarding transport. Sizing is the point: a
// bare http.Client inherits DefaultTransport's MaxIdleConnsPerHost of 2,
// so a worker pool forwarding W concurrent evaluations to one owner
// replica dials W connections, keeps 2, and closes the rest into
// TIME_WAIT — per round. Holding ~Workers idle connections per peer makes
// steady-state forwarding dial-free.
func newTransport(workers, peers int) *http.Transport {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	perHost := workers
	if perHost < 4 {
		perHost = 4
	}
	if peers < 1 {
		peers = 1
	}
	return &http.Transport{
		DialContext: (&net.Dialer{
			Timeout:   5 * time.Second,
			KeepAlive: 30 * time.Second,
		}).DialContext,
		MaxIdleConns:          perHost * peers,
		MaxIdleConnsPerHost:   perHost,
		IdleConnTimeout:       90 * time.Second,
		TLSHandshakeTimeout:   5 * time.Second,
		ExpectContinueTimeout: time.Second,
	}
}

// peerState is one peer's health and telemetry. Health is the breaker's
// state: closed and half-open peers are in the ring, open peers are not.
type peerState struct {
	addr    string
	breaker *resilience.Breaker

	// The peer's children of the kiter_cluster_* counter families, which
	// DispatchStats reads.
	forwarded, failedOver, served, probes, retried *telemetry.Counter

	// mu guards the probe backoff schedule.
	mu        sync.Mutex
	failures  int
	nextProbe time.Time
}

// Cluster implements engine.Dispatcher over a fixed member ring. Create
// one with New, hand it to engine.Config.Dispatcher, mount EvaluateHandler
// on the replica's HTTP mux, and Close it after the engine.
type Cluster struct {
	cfg  Config
	self string
	ring *ring

	// peers and peerList (the same rows, in address order) are immutable
	// after New (rows are created at construction only), so they are read
	// lock-free on the dispatch path; the rows handle their own
	// synchronization.
	peers    map[string]*peerState
	peerList []*peerState

	// forwardRTT times each forwarded evaluation end to end, labeled by
	// peer and outcome (ok / error).
	forwardRTT *telemetry.HistogramVec

	// localCache is the backend the cache handler serves from — the
	// replica's local tiers, set via SetLocalCache (never the fleet tier,
	// which would recurse).
	localCache atomic.Pointer[engine.CacheBackend]

	// warm is the fleet tier's warm-start window, open from the start.
	warm window

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// New builds the cluster and starts its health prober. cfg.Peers may
// include cfg.Self (it is ignored); an empty peer list yields a
// single-member cluster that dispatches everything locally.
func New(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: Self address required")
	}
	members := []string{cfg.Self}
	for _, p := range cfg.Peers {
		if p != cfg.Self {
			members = append(members, p)
		}
	}
	ring, err := newRing(members)
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		cfg:   cfg,
		self:  cfg.Self,
		ring:  ring,
		peers: make(map[string]*peerState),
		stop:  make(chan struct{}),
	}
	reg := cfg.Metrics
	c.forwardRTT = reg.HistogramVec("kiter_cluster_forward_seconds",
		"Round-trip time of one forwarded evaluation, in seconds.",
		telemetry.LatencyBuckets, "peer", "outcome")
	perPeer := func(name, help string) *telemetry.CounterVec { return reg.CounterVec(name, help, "peer") }
	forwarded := perPeer("kiter_cluster_forwarded_total", "Jobs forwarded to the peer with a result returned.")
	failedOver := perPeer("kiter_cluster_failed_over_total", "Forward attempts that fell back to local evaluation.")
	served := perPeer("kiter_cluster_served_total", "Jobs evaluated locally on the peer's behalf.")
	probes := perPeer("kiter_cluster_probes_total", "Health probes sent to the peer.")
	retried := perPeer("kiter_cluster_retried_total", "Forward attempts retried after a first failure.")
	for _, m := range ring.members {
		if m == cfg.Self {
			continue
		}
		// Breakers start closed (optimistic): a down peer costs a few
		// failed forwards (answered locally) before its breaker opens and
		// probing takes over.
		ps := &peerState{
			addr:       m,
			breaker:    resilience.NewBreaker(cfg.BreakerThreshold),
			forwarded:  forwarded.With(m),
			failedOver: failedOver.With(m),
			served:     served.With(m),
			probes:     probes.With(m),
			retried:    retried.With(m),
		}
		c.peers[m] = ps
		c.peerList = append(c.peerList, ps)
	}
	reg.Collect(c.exposeBreakers)
	c.wg.Add(1)
	go c.probeLoop()
	return c, nil
}

// Close stops the health prober and releases idle connections. It does not
// touch the engine; close the engine first so no dispatch is in flight.
func (c *Cluster) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.wg.Wait()
	c.cfg.Client.CloseIdleConnections()
}

// Self returns the replica's advertised address.
func (c *Cluster) Self() string { return c.self }

// peer returns the state row for a configured peer, or nil. Rows are
// created only at construction: the forward handler attributes served
// counts through the caller-controlled peer header, and minting rows from
// it would let any client grow the map (and every /stats response)
// without bound.
func (c *Cluster) peer(addr string) *peerState {
	return c.peers[addr]
}

// alive is the ring's health filter: self is always alive, peers are
// alive unless their breaker is open (half-open peers take trial traffic).
func (c *Cluster) alive(member string) bool {
	if member == c.self {
		return true
	}
	ps, ok := c.peers[member]
	return ok && ps.breaker.State() != resilience.BreakerOpen
}

// Owner returns the member the ring currently places key on, applying the
// local health view.
func (c *Cluster) Owner(key string) string {
	if o := c.ring.owner(key, c.alive); o != "" {
		return o
	}
	return c.self
}

// Dispatch implements engine.Dispatcher: jobs the ring places on this
// replica (or on nobody alive) are declined back to the local pool; jobs
// owned by a healthy peer are forwarded. A forward that fails for any
// reason other than the job's own cancellation counts against the peer's
// breaker and is retried once after a jittered backoff (evaluations are
// idempotent); a second failure falls back to local evaluation, so a
// dying owner never fails a job — it only loses the dedup benefit until a
// probe half-opens its breaker again.
func (c *Cluster) Dispatch(ctx context.Context, job *engine.DispatchJob) (*engine.Result, bool, error) {
	owner := c.Owner(job.Fingerprint)
	if owner == c.self {
		return nil, false, nil
	}
	ps := c.peer(owner)
	if ps == nil {
		// Cannot happen — the ring only yields configured members — but a
		// nil row must not panic the serving path.
		return nil, false, nil
	}
	fctx, fspan := telemetry.StartSpan(ctx, "cluster.forward")
	fspan.SetString("peer", owner)
	defer fspan.End()
	// The body is a copy, so the submitter may reuse the graph's bytes
	// while the owner works.
	body, err := encodeJob(job)
	job.ReleaseGraphJSON()
	if err != nil {
		fspan.SetString("error", err.Error())
		return nil, false, nil
	}
	res, err := c.attempt(fctx, owner, job, body)
	if err == nil {
		ps.breaker.Success()
		ps.forwarded.Inc()
		return res, true, nil
	}
	if ctx.Err() != nil {
		// Every waiter left (or the submission's own deadline passed)
		// while the forward was in flight: fail the job with the context
		// error instead of burning a local slot on unwanted work.
		return nil, true, ctx.Err()
	}
	c.noteForwardFailure(ps)
	fspan.SetString("error", err.Error())
	// Retry once unless that first failure just opened the breaker (the
	// peer is systematically down, not transiently flaky).
	if !ps.breaker.Allow() {
		fspan.Event("breaker.open", "peer", owner)
	} else if sleepCtx(ctx, jitter(c.cfg.RetryBackoff)) {
		ps.retried.Inc()
		if res, err = c.attempt(fctx, owner, job, body); err == nil {
			ps.breaker.Success()
			ps.forwarded.Inc()
			fspan.SetBool("retried", true)
			return res, true, nil
		}
		if ctx.Err() != nil {
			return nil, true, ctx.Err()
		}
		c.noteForwardFailure(ps)
		fspan.SetString("error", err.Error())
	}
	ps.failedOver.Inc()
	fspan.Event("fallback.local", "peer", owner, "error", err.Error())
	return nil, false, nil
}

// attempt times one forward try into the RTT histogram.
func (c *Cluster) attempt(ctx context.Context, owner string, job *engine.DispatchJob, body []byte) (*engine.Result, error) {
	start := time.Now()
	res, err := c.forward(ctx, owner, job, body)
	outcome := "ok"
	if err != nil {
		outcome = "error"
	}
	c.forwardRTT.With(owner, outcome).Observe(time.Since(start).Seconds())
	return res, err
}

// jitter spreads a base delay to [base/2, 3*base/2).
func jitter(base time.Duration) time.Duration {
	if base <= 0 {
		return 0
	}
	return base/2 + time.Duration(rand.Int63n(int64(base)))
}

// sleepCtx waits d, reporting false if ctx ends first.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// forward sends one job, encoded as body, to owner and decodes its result.
func (c *Cluster) forward(ctx context.Context, owner string, job *engine.DispatchJob, body []byte) (*engine.Result, error) {
	// Chaos seam: "dispatch.forward" fails forward attempts (each retry is
	// a fresh Fire), exercising the retry and breaker paths without a
	// network fault.
	if err := faultinject.Fire(faultinject.PointForward); err != nil {
		telemetry.FromContext(ctx).Event("chaos.severed", "point", faultinject.PointForward, "peer", owner)
		return nil, err
	}
	if c.cfg.ForwardTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.cfg.ForwardTimeout)
		defer cancel()
	}
	resp, reply, err := c.roundTrip(ctx, http.MethodPost, owner, "/cluster/evaluate", nil, body, maxForwardBody, http.StatusOK)
	if err != nil {
		return nil, err
	}
	// The owner always answers in the result codec; any other body (a
	// peer from an older build, a proxy error page) is a failed forward.
	if ct := resp.Header.Get("Content-Type"); ct != resultContentType {
		return nil, fmt.Errorf("cluster: peer %s answered %q, want %s", owner, ct, resultContentType)
	}
	res, err := decodeBinaryResult(reply, owner)
	if err != nil {
		return nil, err
	}
	if res.Fingerprint != job.Fingerprint {
		// A peer answering for the wrong structure (version skew, proxy
		// mixup) must not poison the local cache; treat it as a failure
		// and evaluate locally.
		return nil, fmt.Errorf("cluster: peer %s answered fingerprint %.12s, want %.12s",
			owner, res.Fingerprint, job.Fingerprint)
	}
	return res, nil
}

// roundTrip is every request one replica makes of another: method on path
// at peer over the pooled transport, with hdr's headers and body (nil for
// none) as JSON, this replica's address in the peer header, and the
// traceparent of ctx's span when it has one, so the peer's handler span
// joins the caller's trace. It returns the reply and at most limit bytes
// of its body when the status is one of accept; any other status is an
// error carrying the reply's first line. ctx bounds the whole trip.
func (c *Cluster) roundTrip(ctx context.Context, method, peer, path string, hdr http.Header, body []byte, limit int64, accept ...int) (*http.Response, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, "http://"+peer+path, rd)
	if err != nil {
		return nil, nil, err
	}
	maps.Copy(req.Header, hdr)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set(peerHeader, c.self)
	if sc := telemetry.FromContext(ctx).Context(); sc.Valid() {
		req.Header.Set(telemetry.Traceparent, sc.Traceparent())
	}
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	if !slices.Contains(accept, resp.StatusCode) {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, nil, fmt.Errorf("cluster: peer %s %s: %s: %s", peer, path, resp.Status, firstLine(b))
	}
	b, err := io.ReadAll(io.LimitReader(resp.Body, limit))
	return resp, b, err
}

// firstLine bounds an error body for log-friendly messages.
func firstLine(b []byte) string {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		b = b[:i]
	}
	if len(b) > 200 {
		b = b[:200]
	}
	return string(bytes.TrimSpace(b))
}

// noteForwardFailure counts one failed forward against the peer's
// breaker; crossing the threshold opens it, which changes the ring, and
// hands the peer to the prober.
func (c *Cluster) noteForwardFailure(ps *peerState) {
	if ps.breaker.Failure() {
		c.warm.open()
		c.scheduleProbe(ps)
	}
}

// scheduleProbe arms the backoff schedule for a just-opened breaker.
func (c *Cluster) scheduleProbe(ps *peerState) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	ps.failures = 1
	ps.nextProbe = time.Now().Add(c.cfg.ProbeInterval)
}

// probeLoop re-probes unhealthy peers on their backoff schedule until the
// cluster closes. The tick is a fraction of the base interval so a due
// probe never waits a full interval for the clock to notice it.
func (c *Cluster) probeLoop() {
	defer c.wg.Done()
	tick := c.cfg.ProbeInterval / 4
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case now := <-t.C:
			for _, ps := range c.peerList {
				// Only open breakers are probed; a half-open peer is
				// already taking trial traffic that will settle its state.
				if ps.breaker.State() != resilience.BreakerOpen {
					continue
				}
				ps.mu.Lock()
				due := !now.Before(ps.nextProbe)
				ps.mu.Unlock()
				if due {
					c.probe(ps)
				}
			}
		}
	}
}

// probe checks one peer's /healthz. Success half-opens the breaker — the
// peer re-enters the ring and the next forward's outcome closes it for
// real or snaps it back open. Failure doubles the probe backoff (up to
// MaxProbeInterval).
func (c *Cluster) probe(ps *peerState) {
	ps.probes.Inc()
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.ProbeTimeout)
	defer cancel()
	_, _, err := c.roundTrip(ctx, http.MethodGet, ps.addr, "/healthz", nil, nil, 4096, http.StatusOK)
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if err == nil {
		ps.failures = 0
		// The window opens first, so whoever sees the peer back in the
		// ring also sees the window open.
		c.warm.open()
		ps.breaker.HalfOpen()
		return
	}
	ps.failures++
	// failures counts the initial forward failure plus every failed probe;
	// the n-th consecutive probe failure waits 2^n base intervals, capped.
	backoff := c.cfg.ProbeInterval << min(ps.failures-1, 30)
	if backoff > c.cfg.MaxProbeInterval || backoff <= 0 {
		backoff = c.cfg.MaxProbeInterval
	}
	ps.nextProbe = time.Now().Add(backoff)
}

// DispatchStats implements engine.DispatchStatser: one row per known peer,
// sorted by address for stable output.
func (c *Cluster) DispatchStats() []engine.PeerStats {
	out := make([]engine.PeerStats, 0, len(c.peerList))
	for _, ps := range c.peerList {
		st := ps.breaker.State()
		out = append(out, engine.PeerStats{
			Peer:         ps.addr,
			Healthy:      st != resilience.BreakerOpen,
			Forwarded:    ps.forwarded.Value(),
			FailedOver:   ps.failedOver.Value(),
			Served:       ps.served.Value(),
			Probes:       ps.probes.Value(),
			Retried:      ps.retried.Value(),
			BreakerState: st.String(),
			BreakerOpens: ps.breaker.Opens(),
		})
	}
	return out
}

// exposeBreakers renders the peer_healthy, breaker_state and
// breaker_opens_total families from one read of each peer's breaker. A
// BreakerState's value is its gauge encoding.
func (c *Cluster) exposeBreakers(x *telemetry.ExpoWriter) {
	if len(c.peerList) == 0 {
		return
	}
	states := make([]resilience.BreakerState, len(c.peerList))
	for i, ps := range c.peerList {
		states[i] = ps.breaker.State()
	}
	family := func(name, typ, help string, value func(i int) float64) {
		x.Family(name, typ, help)
		for i, ps := range c.peerList {
			x.Sample(name, value(i), "peer", ps.addr)
		}
	}
	family("kiter_cluster_peer_healthy", "gauge", "Local health view of the peer (1 = in the ring).",
		func(i int) float64 {
			if states[i] == resilience.BreakerOpen {
				return 0
			}
			return 1
		})
	family("kiter_cluster_breaker_state", "gauge", "Peer circuit-breaker state: 0 closed, 1 half-open, 2 open.",
		func(i int) float64 { return float64(states[i]) })
	family("kiter_cluster_breaker_opens_total", "counter", "Times the peer's circuit breaker opened.",
		func(i int) float64 { return float64(c.peerList[i].breaker.Opens()) })
}
