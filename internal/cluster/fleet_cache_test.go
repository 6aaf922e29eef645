package cluster

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"kiter/internal/engine"
	"kiter/internal/faultinject"
)

// The fleet tier is an engine backend.
var (
	_ engine.CacheBackend = (*RemoteCache)(nil)
	_ engine.TierStatser  = (*RemoteCache)(nil)
)

// callCounter counts the /cluster/* requests one replica receives, per
// calling peer (the X-Kiter-Peer header) and path, and keeps the body of
// the last /cluster/evaluate.
type callCounter struct {
	mu       sync.Mutex
	n        map[clusterCall]int
	evaluate []byte
}

// clusterCall is one counted request kind: who sent it, to which path.
type clusterCall struct{ from, path string }

func (c *callCounter) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/cluster/") {
			c.mu.Lock()
			if c.n == nil {
				c.n = make(map[clusterCall]int)
			}
			c.n[clusterCall{r.Header.Get(peerHeader), r.URL.Path}]++
			if r.URL.Path == "/cluster/evaluate" {
				c.evaluate, _ = io.ReadAll(r.Body)
				r.Body = io.NopCloser(bytes.NewReader(c.evaluate))
			}
			c.mu.Unlock()
		}
		h.ServeHTTP(w, r)
	})
}

// take returns the counts since the previous take and resets them.
func (c *callCounter) take() map[clusterCall]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.n
	c.n = nil
	return n
}

// startCacheReplica boots one replica the way kiterd wires -peers:
// forwarding through the cluster, the fleet tier composed behind a local
// memory tier that also backs /cluster/cache/get, and healthz. Every
// /cluster/* request it receives is counted in r.calls.
func startCacheReplica(t *testing.T, ln net.Listener, peers []string) *replica {
	t.Helper()
	addr := ln.Addr().String()
	cl, err := New(Config{
		Self:             addr,
		Peers:            peers,
		ForwardTimeout:   10 * time.Second,
		ProbeInterval:    20 * time.Millisecond,
		MaxProbeInterval: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("cluster.New(%s): %v", addr, err)
	}
	local := engine.NewMemoryCache(16, 4096)
	cl.SetLocalCache(local)
	remote := NewRemoteCache(cl)
	eng := engine.New(engine.Config{
		Workers:      2,
		Dispatcher:   cl,
		CacheBackend: engine.NewTieredCache(local, remote),
	})
	mux := http.NewServeMux()
	mux.Handle("/cluster/evaluate", cl.EvaluateHandler(eng, 30*time.Second))
	mux.Handle("/cluster/cache/get", cl.CacheGetHandler())
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	calls := &callCounter{}
	srv := &http.Server{Handler: calls.wrap(mux)}
	go srv.Serve(ln)
	r := &replica{addr: addr, eng: eng, cl: cl, srv: srv, calls: calls, remote: remote}
	t.Cleanup(func() {
		r.srv.Close()
		r.eng.Close()
		r.cl.Close()
	})
	return r
}

// startCacheFleet boots n identically-configured replicas clustered with
// each other.
func startCacheFleet(t *testing.T, n int) []*replica {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	reps := make([]*replica, n)
	for i := range reps {
		reps[i] = startCacheReplica(t, lns[i], addrs)
	}
	return reps
}

// tierStats returns the named tier's stats row from an engine.
func tierStats(t *testing.T, e *engine.Engine, tier string) engine.CacheTierStats {
	t.Helper()
	for _, ts := range e.Stats().CacheTiers {
		if ts.Tier == tier {
			return ts
		}
	}
	t.Fatalf("no %q tier on stats: %+v", tier, e.Stats().CacheTiers)
	return engine.CacheTierStats{}
}

// TestFleetWarmStart is the cold-join acceptance test: after a fleet has
// evaluated a sweep, a freshly joined replica replaying the same
// fingerprint set must perform zero local solves. Every key the new ring
// assigns to the joiner itself is a fleet-tier hit, read from its ring
// successor (the previous owner); every other key is forwarded to its
// owner, which answers from its cache.
func TestFleetWarmStart(t *testing.T) {
	single := engine.New(engine.Config{Workers: 2})
	defer single.Close()
	want, points := runSweepPoints(t, single, testSpec(t))
	var fps []string
	for _, p := range points {
		fps = append(fps, p.Result.Fingerprint)
	}

	reps := startCacheFleet(t, 3)
	got := runSweep(t, reps[0].eng, testSpec(t))
	requireSameEnvelope(t, got, want)
	if total := fleetEvaluations(reps); total != uint64(want.Scenarios) {
		t.Fatalf("warm fleet evaluations = %d, want %d", total, want.Scenarios)
	}

	// Cold replica joins the warm fleet and replays the sweep.
	peers := []string{reps[0].addr, reps[1].addr, reps[2].addr}
	cold := startCacheReplica(t, listenOwningSome(t, peers, fps), peers)
	cgot, cpoints := runSweepPoints(t, cold.eng, testSpec(t))
	requireSameEnvelope(t, cgot, want)

	cs := cold.eng.Stats()
	if cs.Evaluations != 0 {
		t.Fatalf("cold replica solved %d scenarios locally, want 0", cs.Evaluations)
	}
	owned := 0
	for _, p := range cpoints {
		res, fp := p.Result, p.Result.Fingerprint
		if owner := cold.cl.Owner(fp); owner == cold.addr {
			owned++
			succ := cold.cl.ring.owner(fp, func(m string) bool { return m != cold.addr })
			if !res.CacheHit || res.Peer != succ {
				t.Fatalf("scenario %d (owned by the cold replica): cacheHit=%v peer=%q, want a fleet-tier hit from successor %s",
					p.Scenario, res.CacheHit, res.Peer, succ)
			}
		} else if res.CacheHit || res.Peer != owner {
			t.Fatalf("scenario %d (owned by %s): cacheHit=%v peer=%q, want a forwarded answer from its owner",
				p.Scenario, owner, res.CacheHit, res.Peer)
		}
	}
	fleet := tierStats(t, cold.eng, "fleet")
	if fleet.Hits != uint64(owned) {
		t.Fatalf("fleet-tier hits = %d, want %d (one per scenario the cold replica owns)", fleet.Hits, owned)
	}
	if cs.RemoteResults != uint64(want.Scenarios-owned) {
		t.Fatalf("forwarded answers = %d, want %d (one per scenario another member owns)",
			cs.RemoteResults, want.Scenarios-owned)
	}
	if moved := cold.remote.mBytes.Value(); moved == 0 || fleet.Bytes != 0 {
		t.Fatalf("fleet tier moved %d bytes and stores %d, want some moved and none stored", moved, fleet.Bytes)
	}
	// The memory tier reports a footprint estimate now that promotions
	// filled it (satellite: Bytes for every tier, not just disk).
	if mem := tierStats(t, cold.eng, "memory"); mem.Entries == 0 || mem.Bytes == 0 {
		t.Fatalf("memory tier gauges = %+v, want entries and bytes > 0", mem)
	}
	// And the whole fleet still performed no additional evaluation.
	if total := fleetEvaluations(append(reps, cold)); total != uint64(want.Scenarios) {
		t.Fatalf("fleet evaluations after cold replay = %d, want %d", total, want.Scenarios)
	}
}

// listenOwningSome opens a loopback listener whose address, joined to
// peers, owns some but not all of fps on the ring — so a warm-start test
// exercises both the successor read and the forward whatever ports the
// OS hands out.
func listenOwningSome(t *testing.T, peers, fps []string) net.Listener {
	t.Helper()
	for range 64 {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		r, err := newRing(append(slices.Clone(peers), ln.Addr().String()))
		if err != nil {
			t.Fatal(err)
		}
		owned := 0
		for _, fp := range fps {
			if r.owner(fp, nil) == ln.Addr().String() {
				owned++
			}
		}
		if owned > 0 && owned < len(fps) {
			return ln
		}
		ln.Close()
	}
	t.Fatal("no listener address owns part of the fingerprint set")
	return nil
}

// TestFleetTierChaosDegrade arms the dispatch.forward fault — severing
// every fleet interaction: forwards and the cache tier — and asserts the
// replica degrades gracefully: warm keys keep serving from the local
// memory tier, cold keys fall back to local evaluation, and no request
// fails.
func TestFleetTierChaosDegrade(t *testing.T) {
	single := engine.New(engine.Config{Workers: 2})
	defer single.Close()
	want := runSweep(t, single, testSpec(t))

	reps := startCacheFleet(t, 3)
	got := runSweep(t, reps[0].eng, testSpec(t))
	requireSameEnvelope(t, got, want)

	set, err := faultinject.Parse("dispatch.forward:error")
	if err != nil {
		t.Fatalf("parse faults: %v", err)
	}
	faultinject.Activate(set)
	defer faultinject.Activate(nil)
	firedBefore := faultinject.Fired(faultinject.PointForward)

	// Replica 0 is warm for every key (it ran the sweep): the re-run must
	// be answered wholly by its local tiers.
	evalsBefore := reps[0].eng.Stats().Evaluations
	requireSameEnvelope(t, runSweep(t, reps[0].eng, testSpec(t)), want)
	if d := reps[0].eng.Stats().Evaluations - evalsBefore; d != 0 {
		t.Fatalf("warm replica re-evaluated %d scenarios under chaos, want 0 (memory tier)", d)
	}

	// Replica 1 is warm only for its own shard: everything else must fall
	// back to a local solve — degraded but correct, nothing failing.
	s1Before := reps[1].eng.Stats()
	requireSameEnvelope(t, runSweep(t, reps[1].eng, testSpec(t)), want)
	s1 := reps[1].eng.Stats()
	if d := s1.Evaluations - s1Before.Evaluations; d == 0 {
		t.Fatal("severed replica performed no local evaluations; expected fallback solves")
	}
	if s1.Errors != s1Before.Errors {
		t.Fatalf("chaos surfaced evaluation errors: %d -> %d", s1Before.Errors, s1.Errors)
	}
	if faultinject.Fired(faultinject.PointForward) == firedBefore {
		t.Fatal("dispatch.forward fault never fired; chaos exercised nothing")
	}
}

func TestKeyFingerprint(t *testing.T) {
	for in, want := range map[string]string{
		"abc|kiter|throughput": "abc",
		"abc":                  "abc",
		"|kiter":               "",
	} {
		if got := keyFingerprint(in); got != want {
			t.Fatalf("keyFingerprint(%q) = %q, want %q", in, got, want)
		}
	}
}
