package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"kiter/internal/engine"
	"kiter/internal/gen"
	"kiter/internal/resilience"
	"kiter/internal/resultcodec"
)

func TestWireRoundTrip(t *testing.T) {
	g := gen.VideoPipeline()
	job := &engine.DispatchJob{
		Graph:           g,
		Analyses:        []engine.AnalysisKind{engine.AnalysisThroughput, engine.AnalysisSchedule},
		Method:          engine.MethodKIter,
		ApplyCapacities: true,
		NoCache:         true,
		Fingerprint:     g.FingerprintHex(),
	}
	body := encodeJob(job)
	req, err := decodeRequest(bytes.NewReader(body), int64(len(body)))
	if err != nil {
		t.Fatalf("decodeRequest: %v", err)
	}
	if req.Facts.Graph().FingerprintHex() != g.FingerprintHex() {
		t.Fatal("graph fingerprint changed across the wire")
	}
	if req.Method != engine.MethodKIter || !req.ApplyCapacities || !req.NoCache {
		t.Fatalf("request knobs lost: %+v", req)
	}
	if len(req.Analyses) != 2 {
		t.Fatalf("analyses lost: %v", req.Analyses)
	}
	if !req.NoForward {
		t.Fatal("decoded request not pinned local — forwarding loops possible")
	}
}

func TestDecodeRequestRejectsUnknownFields(t *testing.T) {
	if _, err := decodeRequest(strings.NewReader(`{"graph": {}, "shiny": true}`), -1); err == nil {
		t.Fatal("unknown wire field accepted — version skew would be silent")
	}
	if _, err := decodeRequest(strings.NewReader(`not json`), -1); err == nil {
		t.Fatal("garbage accepted")
	}
}

// newTestCluster builds a cluster with fast probe timings.
func newTestCluster(t *testing.T, self string, peers []string) *Cluster {
	t.Helper()
	c, err := New(Config{
		Self:             self,
		Peers:            peers,
		ForwardTimeout:   5 * time.Second,
		ProbeInterval:    20 * time.Millisecond,
		MaxProbeInterval: 100 * time.Millisecond,
		ProbeTimeout:     time.Second,
	})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	t.Cleanup(c.Close)
	return c
}

// openBreaker opens a peer's breaker the way failed forwards do: one
// failure per threshold step, the last of which hands the peer to the
// prober.
func openBreaker(c *Cluster, ps *peerState) {
	for i := 0; i < c.cfg.BreakerThreshold; i++ {
		c.noteForwardFailure(ps)
	}
}

func TestProbeRevivesFlappyPeer(t *testing.T) {
	// A peer that answers /healthz only after a few failures: the cluster
	// must mark it unhealthy on a forward failure, keep backing off, and
	// revive it once a probe succeeds.
	var healthyNow atomic.Bool
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" {
			http.Error(w, "nope", http.StatusInternalServerError)
			return
		}
		if !healthyNow.Load() {
			http.Error(w, "warming up", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer peer.Close()
	addr := strings.TrimPrefix(peer.URL, "http://")

	c := newTestCluster(t, "self:1", []string{addr})
	ps := c.peer(addr)
	if st := ps.breaker.State(); st != resilience.BreakerClosed {
		t.Fatalf("peer breaker %v at start, want closed (optimistic)", st)
	}
	openBreaker(c, ps)
	if c.alive(addr) {
		t.Fatal("peer alive after its breaker opened")
	}

	// While it keeps failing, probes accrue and it stays out of the ring.
	deadline := time.Now().Add(2 * time.Second)
	for ps.probes.Value() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("prober never probed: %d probes", ps.probes.Value())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if c.alive(addr) {
		t.Fatal("failing peer revived")
	}

	healthyNow.Store(true)
	deadline = time.Now().Add(2 * time.Second)
	for !c.alive(addr) {
		if time.Now().After(deadline) {
			t.Fatal("healthy peer never revived")
		}
		time.Sleep(5 * time.Millisecond)
	}
	stats := c.DispatchStats()
	if len(stats) != 1 || !stats[0].Healthy || stats[0].Probes == 0 {
		t.Fatalf("stats after revival: %+v", stats)
	}
	// A probe revival is provisional: the peer re-enters the ring
	// half-open, and only a successful forward closes the breaker.
	if stats[0].BreakerState != "half-open" || stats[0].BreakerOpens == 0 {
		t.Fatalf("revived breaker = %q opens=%d, want half-open with an open on record",
			stats[0].BreakerState, stats[0].BreakerOpens)
	}
}

func TestOwnerFallsBackToSelfWhenAllPeersDead(t *testing.T) {
	c := newTestCluster(t, "self:1", []string{"p1:1", "p2:2"})
	for _, p := range []string{"p1:1", "p2:2"} {
		openBreaker(c, c.peer(p))
	}
	// Every key must now come home.
	for i := 0; i < 50; i++ {
		if o := c.Owner(string(rune('a' + i))); o != "self:1" {
			t.Fatalf("owner with all peers dead = %s", o)
		}
	}
}

func TestSelfExcludedFromPeers(t *testing.T) {
	c := newTestCluster(t, "self:1", []string{"self:1", "p1:1"})
	if _, ok := c.peers["self:1"]; ok {
		t.Fatal("self tracked as its own peer")
	}
	if len(c.DispatchStats()) != 1 {
		t.Fatalf("stats rows = %d, want 1", len(c.DispatchStats()))
	}
}

// TestForwardRetryThenBreakerOpens walks one peer through the whole
// breaker lifecycle via Dispatch: a flaky forward is retried once before
// failing over, consecutive failures open the breaker (no more retries,
// peer out of the ring), a passing probe half-opens it, and the next
// successful forward closes it again.
func TestForwardRetryThenBreakerOpens(t *testing.T) {
	var failing atomic.Bool
	failing.Store(true)
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("/cluster/evaluate", func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		if failing.Load() {
			http.Error(w, "injected outage", http.StatusInternalServerError)
			return
		}
		req, err := decodeRequest(bytes.NewReader(body), int64(len(body)))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", resultContentType)
		w.Write(resultcodec.Encode(&engine.Result{Fingerprint: req.Facts.Graph().FingerprintHex()}))
	})
	peer := httptest.NewServer(mux)
	defer peer.Close()
	addr := strings.TrimPrefix(peer.URL, "http://")

	c := newTestCluster(t, "self:1", []string{addr})
	ps := c.peer(addr)

	// A job whose fingerprint the ring places on the peer: the peer's port
	// is random, so ask the ring rather than fix the graph.
	var job *engine.DispatchJob
	for n := 2; n < 66 && job == nil; n++ {
		if g := gen.KIterChain(n); c.Owner(g.FingerprintHex()) == addr {
			job = &engine.DispatchJob{
				Graph:       g,
				Analyses:    []engine.AnalysisKind{engine.AnalysisThroughput},
				Method:      engine.MethodKIter,
				Fingerprint: g.FingerprintHex(),
			}
		}
	}
	if job == nil {
		t.Fatal("the ring placed none of 64 chain graphs on the peer")
	}

	ctx := context.Background()
	// Dispatch 1: attempt + retry both fail -> two breaker failures, one
	// retry, one failover, breaker still closed (threshold 3).
	if _, handled, err := c.Dispatch(ctx, job); handled || err != nil {
		t.Fatalf("dispatch 1 = handled %v err %v, want local fallback", handled, err)
	}
	if got := ps.retried.Value(); got != 1 {
		t.Fatalf("retried = %d after dispatch 1, want 1", got)
	}
	if st := ps.breaker.State(); st != resilience.BreakerClosed {
		t.Fatalf("breaker %v after dispatch 1, want closed", st)
	}
	// Dispatch 2: third consecutive failure opens the breaker; no retry
	// against a peer just declared down.
	if _, handled, err := c.Dispatch(ctx, job); handled || err != nil {
		t.Fatalf("dispatch 2 = handled %v err %v, want local fallback", handled, err)
	}
	if st := ps.breaker.State(); st != resilience.BreakerOpen {
		t.Fatalf("breaker %v after dispatch 2, want open", st)
	}
	if got := ps.retried.Value(); got != 1 {
		t.Fatalf("retried = %d after breaker opened, want still 1", got)
	}
	if c.alive(addr) {
		t.Fatal("open-breaker peer still in the ring")
	}

	// The peer recovers: its /healthz already passes, so the prober
	// half-opens the breaker on its schedule.
	failing.Store(false)
	deadline := time.Now().Add(2 * time.Second)
	for ps.breaker.State() != resilience.BreakerHalfOpen {
		if time.Now().After(deadline) {
			t.Fatalf("breaker never half-opened: %v", ps.breaker.State())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Dispatch 3: the half-open trial succeeds and closes the breaker.
	res, handled, err := c.Dispatch(ctx, job)
	if err != nil || !handled || res == nil || res.Peer != addr {
		t.Fatalf("dispatch 3 = %+v handled %v err %v, want forwarded result", res, handled, err)
	}
	if st := ps.breaker.State(); st != resilience.BreakerClosed {
		t.Fatalf("breaker %v after successful trial, want closed", st)
	}
	stats := c.DispatchStats()
	if len(stats) != 1 || stats[0].BreakerOpens != 1 || stats[0].Retried != 1 ||
		stats[0].Forwarded != 1 || stats[0].FailedOver != 2 {
		t.Fatalf("final stats: %+v", stats[0])
	}
}

// TestJSONAnswerFailsOver pins the wire rule that /cluster/evaluate answers
// only in the result codec: an owner replying application/json — even with
// a valid result for the right fingerprint — is a failed forward, so the
// job is evaluated locally and the peer's FailedOver counter goes up.
func TestJSONAnswerFailsOver(t *testing.T) {
	var calls atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("/cluster/evaluate", func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		body, _ := io.ReadAll(r.Body)
		req, err := decodeRequest(bytes.NewReader(body), int64(len(body)))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(&engine.Result{
			Fingerprint: req.Facts.Graph().FingerprintHex(),
			Throughput:  &engine.ThroughputResult{Period: "424242", Optimal: true},
		})
	})
	peer := httptest.NewServer(mux)
	defer peer.Close()
	addr := strings.TrimPrefix(peer.URL, "http://")

	c := newTestCluster(t, "self:1", []string{addr})
	eng := engine.New(engine.Config{Workers: 1, Dispatcher: c})
	t.Cleanup(eng.Close)

	// A graph the ring places on the peer, so the submission forwards.
	g := gen.KIterChain(2)
	for n := 3; c.Owner(g.FingerprintHex()) != addr; n++ {
		if n > 64 {
			t.Fatal("no KIterChain graph placed on the peer")
		}
		g = gen.KIterChain(n)
	}
	res, err := eng.Submit(context.Background(), &engine.Request{
		Graph:    g,
		Analyses: []engine.AnalysisKind{engine.AnalysisThroughput},
		Method:   engine.MethodKIter,
	})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if res.Peer != "" {
		t.Fatalf("result attributed to peer %q, want a local evaluation", res.Peer)
	}
	if res.Throughput == nil || res.Throughput.Period == "424242" {
		t.Fatalf("job answered with the peer's JSON result: %+v", res.Throughput)
	}
	if calls.Load() == 0 {
		t.Fatal("job never forwarded to the owner")
	}
	stats := c.DispatchStats()
	if len(stats) != 1 || stats[0].FailedOver != 1 || stats[0].Forwarded != 0 {
		t.Fatalf("peer stats = %+v, want 1 failover and 0 forwards", stats)
	}
}

// TestHungOwnerForwardTimeout pins when a hung owner, one that accepts the
// connection and never answers, costs a request its local answer. The
// request's deadline starts before the forward's, so with a forward budget
// no shorter than the request's (kiterd's default sets them equal) the
// request ends first: Submit fails with DeadlineExceeded, nothing fails
// over and the breaker is not charged. Only a forward budget below the
// request's lets the forward and its retry time out, charge the breaker
// and fall back to local evaluation. The first case gives the forward
// twice the request's budget, so that scheduling cannot reorder the two
// deadlines; the second gives the request room for both tries and the
// local solve.
func TestHungOwnerForwardTimeout(t *testing.T) {
	hung := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("/cluster/evaluate", func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-hung:
		case <-r.Context().Done():
		}
	})
	peer := httptest.NewServer(mux)
	t.Cleanup(peer.Close)
	t.Cleanup(func() { close(hung) }) // runs first: Close waits for the handlers
	addr := strings.TrimPrefix(peer.URL, "http://")

	for _, tc := range []struct {
		name             string
		request, forward time.Duration
		local            bool
	}{
		{"forward budget not below the request's", 300 * time.Millisecond, 600 * time.Millisecond, false},
		{"forward budget below the request's", 5 * time.Second, 50 * time.Millisecond, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := New(Config{Self: "self:1", Peers: []string{addr}, ForwardTimeout: tc.forward})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.Close)
			eng := engine.New(engine.Config{Workers: 1, Dispatcher: c})
			t.Cleanup(eng.Close)
			g := gen.KIterChain(2)
			for n := 3; c.Owner(g.FingerprintHex()) != addr; n++ {
				if n > 64 {
					t.Fatal("no KIterChain graph placed on the peer")
				}
				g = gen.KIterChain(n)
			}
			ctx, cancel := context.WithTimeout(context.Background(), tc.request)
			defer cancel()
			start := time.Now()
			res, err := eng.Submit(ctx, &engine.Request{Graph: g, Method: engine.MethodKIter})
			elapsed := time.Since(start)
			st := c.DispatchStats()[0]
			if tc.local {
				if err != nil || res.Peer != "" {
					t.Fatalf("after %v: result %+v, error %v, want a local answer", elapsed, res, err)
				}
				if st.FailedOver != 1 || st.Retried != 1 {
					t.Fatalf("after %v: %d failovers, %d retries, want 1 and 1", elapsed, st.FailedOver, st.Retried)
				}
				return
			}
			if !errors.Is(err, context.DeadlineExceeded) || elapsed < tc.request {
				t.Fatalf("after %v: error %v, want DeadlineExceeded at the request's budget of %v", elapsed, err, tc.request)
			}
			if st.FailedOver != 0 || st.BreakerState != resilience.BreakerClosed.String() {
				t.Fatalf("after %v: %d failovers, breaker %s, want none and closed", elapsed, st.FailedOver, st.BreakerState)
			}
		})
	}
}
