package cluster

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"kiter/internal/csdf"
	"kiter/internal/engine"
	"kiter/internal/gen"
	"kiter/internal/resilience"
	"kiter/internal/sdf3x"
)

// ownGraphs returns n two-task chains of distinct structure that r's ring
// places on owner, skipping the first skip of them.
func ownGraphs(t *testing.T, r *replica, owner string, skip, n int) []*csdf.Graph {
	t.Helper()
	var out []*csdf.Graph
	for d := int64(1); len(out) < n; d++ {
		if d > 2000 {
			t.Fatalf("found %d of %d graphs owned by %s", len(out), n, owner)
		}
		if g := gen.TwoTaskChain(3, d); r.cl.Owner(g.FingerprintHex()) == owner {
			if skip > 0 {
				skip--
				continue
			}
			out = append(out, g)
		}
	}
	return out
}

// successorReads drains every replica's call counter and returns the
// /cluster/cache/get requests from sender among them.
func successorReads(reps []*replica, sender string) int {
	n := 0
	for _, r := range reps {
		n += r.calls.take()[clusterCall{sender, "/cluster/cache/get"}]
	}
	return n
}

// submitKIter submits g to r's engine and fails the test on an error.
func submitKIter(t *testing.T, r *replica, g *csdf.Graph, noForward bool) *engine.Result {
	t.Helper()
	res, err := r.eng.Submit(context.Background(), &engine.Request{Graph: g, Method: engine.MethodKIter, NoForward: noForward})
	if err != nil {
		t.Fatalf("submit %s: %v", g.Name, err)
	}
	return res
}

// closeWindow sends windowRun cold graphs replica r owns through it: each
// is one successor read answered 204, and together they close r's
// warm-start window.
func closeWindow(t *testing.T, reps []*replica, r *replica) {
	t.Helper()
	successorReads(reps, r.addr)
	for _, g := range ownGraphs(t, r, r.addr, 0, windowRun) {
		submitKIter(t, r, g, false)
	}
	if n := successorReads(reps, r.addr); n != windowRun {
		t.Fatalf("%d successor reads while the window was open, want %d", n, windowRun)
	}
	if r.cl.warm.isOpen() {
		t.Fatalf("window still open after %d consecutive 204s", windowRun)
	}
}

// TestWarmWindowClosesInSteadyState checks that on a fresh fleet, once a
// run of 204s has closed the warm-start window, a miss on a key the
// replica owns makes no /cluster/cache/get at all, counted where the
// reads would arrive.
func TestWarmWindowClosesInSteadyState(t *testing.T) {
	reps := startCacheFleet(t, 3)
	r0 := reps[0]
	closeWindow(t, reps, r0)
	for _, g := range ownGraphs(t, r0, r0.addr, windowRun, 8) {
		if res := submitKIter(t, r0, g, false); res.CacheHit {
			t.Fatalf("%s: cold graph answered from a cache", g.Name)
		}
	}
	if n := successorReads(reps, r0.addr); n != 0 {
		t.Fatalf("owner misses after the window closed made %d successor reads, want 0", n)
	}
	if fleet := tierStats(t, r0.eng, "fleet"); fleet.Misses < windowRun+8 || fleet.Hits != 0 {
		t.Fatalf("fleet tier = %+v, want every owner miss counted as a miss", fleet)
	}
}

// TestWarmWindowStaysOpenWhileHitsCome checks that a hit restarts the
// count of 204s: a replica whose owned misses the successor lacks come in
// runs shorter than windowRun still reads every key the successor holds,
// as a replica does while it warms up after joining.
func TestWarmWindowStaysOpenWhileHitsCome(t *testing.T) {
	reps := startCacheFleet(t, 3)
	r0 := reps[0]
	cold := ownGraphs(t, r0, r0.addr, 0, 2*(windowRun-1))
	for i, k := range ownGraphs(t, r0, r0.addr, len(cold), 2) {
		succ := r0.cl.ring.owner(k.FingerprintHex(), func(m string) bool { return m != r0.addr })
		for _, r := range reps {
			if r.addr == succ {
				submitKIter(t, r, k, true)
			}
		}
		for _, g := range cold[i*(windowRun-1) : (i+1)*(windowRun-1)] {
			submitKIter(t, r0, g, false)
		}
		if res := submitKIter(t, r0, k, false); !res.CacheHit || res.Peer != succ {
			t.Fatalf("key %d after %d cold misses: cacheHit=%v peer=%q, want a fleet-tier hit from %s",
				i, windowRun-1, res.CacheHit, res.Peer, succ)
		}
	}
	if fleet := tierStats(t, r0.eng, "fleet"); fleet.Hits != 2 {
		t.Fatalf("fleet tier = %+v, want 2 hits", fleet)
	}
}

// TestWarmWindowReopensOnRingChange checks both ring changes that reopen
// a closed window: a peer's breaker opening, and a probe half-opening
// it. Once the peer is back in the ring, a key the replica owns that only
// its successor has cached is a fleet-tier hit.
func TestWarmWindowReopensOnRingChange(t *testing.T) {
	reps := startCacheFleet(t, 3)
	r0 := reps[0]
	closeWindow(t, reps, r0)

	// A key r0 owns, evaluated and cached only at its successor.
	k := ownGraphs(t, r0, r0.addr, windowRun, 1)[0]
	fp := k.FingerprintHex()
	succ := r0.cl.ring.owner(fp, func(m string) bool { return m != r0.addr })
	var s *replica
	for _, r := range reps {
		if r.addr == succ {
			s = r
		}
	}
	submitKIter(t, s, k, true)

	ps := r0.cl.peer(succ)
	for {
		openBreaker(r0.cl, ps)
		if !r0.cl.warm.isOpen() {
			t.Fatal("window closed after a breaker opened")
		}
		r0.cl.warm.run.Store(windowRun)
		// Open still means the prober has not half-opened the peer, so
		// the window can only reopen from here by that probe.
		if ps.breaker.State() == resilience.BreakerOpen {
			break
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for ps.breaker.State() != resilience.BreakerHalfOpen {
		if time.Now().After(deadline) {
			t.Fatalf("probe never half-opened %s: %v", succ, ps.breaker.State())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !r0.cl.warm.isOpen() {
		t.Fatal("window closed after a probe half-opened a peer")
	}
	res := submitKIter(t, r0, k, false)
	if !res.CacheHit || res.Peer != succ {
		t.Fatalf("owned key cached at the successor: cacheHit=%v peer=%q, want a fleet-tier hit from %s",
			res.CacheHit, res.Peer, succ)
	}
	if r0.eng.Stats().Evaluations != windowRun {
		t.Fatalf("r0 evaluated %d graphs, want only the %d that closed the window", r0.eng.Stats().Evaluations, windowRun)
	}
}

// TestForwardSendsCompactGraph checks that a forward re-encodes the graph
// whatever the client wrote: an indented bare graph with an unknown key
// reaches the owner as {"graph":<AppendJSON bytes>,<knobs>}, and the answer
// carries the fingerprint the entry replica computed.
func TestForwardSendsCompactGraph(t *testing.T) {
	reps := startCacheFleet(t, 2)
	a, b := reps[0], reps[1]
	g := ownGraphs(t, a, b.addr, 0, 1)[0]
	var indented bytes.Buffer
	if err := sdf3x.WriteJSON(&indented, g); err != nil {
		t.Fatal(err)
	}
	client := append([]byte("{ \"note\": \"caf\\u00e9\",\n"), indented.Bytes()[1:]...)
	f, env, err := sdf3x.ReadRequest(bytes.NewReader(client), int64(len(client)))
	if err != nil || env != nil {
		t.Fatalf("client body read as envelope %v, error %v; want a bare graph", env, err)
	}
	res, err := a.eng.Submit(context.Background(), &engine.Request{Facts: f, Method: engine.MethodKIter})
	if err != nil {
		t.Fatal(err)
	}
	if res.Peer != b.addr || res.Fingerprint != f.Graph().FingerprintHex() {
		t.Fatalf("answer from %q for %.12s, want a forward to %s for %.12s", res.Peer, res.Fingerprint, b.addr, f.Graph().FingerprintHex())
	}
	b.calls.mu.Lock()
	got := string(b.calls.evaluate)
	b.calls.mu.Unlock()
	want := string(sdf3x.AppendJSON([]byte(`{"graph":`), f.Graph())) + ","
	if !strings.HasPrefix(got, want) || !strings.HasSuffix(got, `"method":"kiter"}`) {
		t.Fatalf("owner received %q, want %q, the knobs, and the closing brace", got, want)
	}
}

// TestOversizeForwardRunsLocally checks that a job whose encoded body is
// over the forward cap is not sent: it is evaluated locally, and the
// owner's breaker and counters are left as they were.
func TestOversizeForwardRunsLocally(t *testing.T) {
	reps := startCacheFleet(t, 2)
	a, b := reps[0], reps[1]
	g := ownGraphs(t, a, b.addr, 0, 1)[0]
	// The envelope is longer than the graph it wraps.
	a.cl.maxForwardBody = len(sdf3x.AppendJSON(nil, g))
	if res := submitKIter(t, a, g, false); res.Peer != "" {
		t.Fatalf("answered by %q, want a local evaluation", res.Peer)
	}
	st := a.cl.DispatchStats()[0]
	if st.Forwarded != 0 || st.FailedOver != 0 || st.Retried != 0 || st.BreakerState != resilience.BreakerClosed.String() {
		t.Fatalf("peer stats %+v, want no forward, failover or retry and a closed breaker", st)
	}
	if n := b.calls.take()[clusterCall{a.addr, "/cluster/evaluate"}]; n != 0 {
		t.Fatalf("owner received %d forwards, want none", n)
	}
}
