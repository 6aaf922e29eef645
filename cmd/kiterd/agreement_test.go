package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"kiter/internal/engine"
	"kiter/internal/faultinject"
	"kiter/internal/telemetry"
)

// gate holds the /cluster/evaluate requests of the replica behind it while
// it is shut.
type gate struct {
	mu   sync.Mutex
	open chan struct{} // nil while the gate is open
}

func (g *gate) shut() {
	g.mu.Lock()
	g.open = make(chan struct{})
	g.mu.Unlock()
}

// release opens the gate, letting every held request through; it is a
// no-op on an open gate.
func (g *gate) release() {
	g.mu.Lock()
	if g.open != nil {
		close(g.open)
		g.open = nil
	}
	g.mu.Unlock()
}

func (g *gate) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/cluster/evaluate" {
			g.mu.Lock()
			open := g.open
			g.mu.Unlock()
			if open != nil {
				<-open
			}
		}
		h.ServeHTTP(w, r)
	})
}

// gatedFleet boots two replicas wired like wiredFleet's, at MaxPending 1,
// with a gate in front of the second replica.
func gatedFleet(t *testing.T) (a, b *wiredReplica, g *gate) {
	t.Helper()
	g = &gate{}
	var ts [2]*httptest.Server
	var addrs []string
	for i := range ts {
		ts[i] = httptest.NewUnstartedServer(nil)
		addrs = append(addrs, ts[i].Listener.Addr().String())
	}
	var fleet [2]*wiredReplica
	for i := range fleet {
		reg := telemetry.NewRegistry()
		telemetry.RegisterRuntimeMetrics(reg)
		cl, err := buildCluster(strings.Join(addrs, ","), addrs[i], addrs[i], 0, time.Minute, 2, reg)
		if err != nil {
			t.Fatal(err)
		}
		backend, err := buildCache(256, t.TempDir(), 8<<20, cl)
		if err != nil {
			t.Fatal(err)
		}
		e := engine.New(engine.Config{Workers: 2, CacheBackend: backend, MaxPending: 1, Dispatcher: cl, Metrics: reg})
		build := readBuildInfo()
		adm := instrument(reg, e, build)
		srv := newServer(e, testTemplate(), cl, observability{
			reg: reg, recorder: telemetry.NewRecorder(64), process: addrs[i], build: build,
		})
		srv.admission = adm
		var h http.Handler = srv
		if i == 1 {
			h = g.wrap(srv)
		}
		ts[i].Config.Handler = h
		ts[i].Start()
		fleet[i] = &wiredReplica{srv: srv, e: e, cl: cl, url: ts[i].URL}
	}
	t.Cleanup(func() {
		for _, s := range ts {
			s.Close()
		}
		for _, r := range fleet {
			r.e.Close()
			r.cl.Close()
		}
	})
	return fleet[0], fleet[1], g
}

// counterSamples returns every sample of the scrape's counter families,
// plus the evaluation histogram's count, keyed by the sample's name and
// labels as exposed. Families no /stats field mirrors are left out.
func counterSamples(t *testing.T, scrape string) map[string]float64 {
	t.Helper()
	notOnStats := map[string]bool{
		"kiter_solver_arcs_built_total":    true,
		"kiter_solver_arcs_reused_total":   true,
		"kiter_cache_remote_errors_total":  true,
		"kiter_cache_remote_bytes_total":   true,
		"kiter_go_gc_cycles_total":         true,
		"kiter_go_heap_allocs_bytes_total": true,
	}
	counters := map[string]bool{"kiter_engine_evaluation_seconds_count": true}
	out := map[string]float64{}
	for _, line := range strings.Split(strings.TrimSpace(scrape), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			if name, typ, _ := strings.Cut(rest, " "); typ == "counter" && !notOnStats[name] {
				counters[name] = true
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		key := line[:i]
		name, _, _ := strings.Cut(key, "{")
		if !counters[name] {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("unparseable sample %q", line)
		}
		out[key] = v
	}
	return out
}

// statsSamples renders a /stats reply as the counter samples that mirror
// its fields, keyed like counterSamples.
func statsSamples(s statsResponse) map[string]float64 {
	out := map[string]float64{
		"kiter_engine_submitted_total":          float64(s.Submitted),
		"kiter_engine_cache_hits_total":         float64(s.CacheHits),
		"kiter_engine_cache_misses_total":       float64(s.CacheMisses),
		"kiter_engine_deduped_total":            float64(s.Deduped),
		"kiter_engine_evaluations_total":        float64(s.Evaluations),
		"kiter_engine_remote_results_total":     float64(s.RemoteResults),
		"kiter_engine_errors_total":             float64(s.Errors),
		"kiter_engine_cancelled_total":          float64(s.Cancelled),
		"kiter_engine_rejected_total":           float64(s.Rejected),
		"kiter_panics_total":                    float64(s.Panics),
		"kiter_engine_evaluation_seconds_count": float64(s.LatencySamples),
		"kiter_admission_shed_total":            float64(s.Admission.Shed),
	}
	labeled := func(name, label, value string, v uint64) {
		out[fmt.Sprintf("%s{%s=%q}", name, label, value)] = float64(v)
	}
	for m, v := range s.RaceWins {
		labeled("kiter_race_wins_total", "method", m, v)
	}
	for _, tier := range s.CacheTiers {
		labeled("kiter_cache_tier_hits_total", "tier", tier.Tier, tier.Hits)
		labeled("kiter_cache_tier_misses_total", "tier", tier.Tier, tier.Misses)
	}
	for _, p := range s.Cluster {
		labeled("kiter_cluster_forwarded_total", "peer", p.Peer, p.Forwarded)
		labeled("kiter_cluster_failed_over_total", "peer", p.Peer, p.FailedOver)
		labeled("kiter_cluster_served_total", "peer", p.Peer, p.Served)
		labeled("kiter_cluster_probes_total", "peer", p.Peer, p.Probes)
		labeled("kiter_cluster_retried_total", "peer", p.Peer, p.Retried)
		labeled("kiter_cluster_breaker_opens_total", "peer", p.Peer, p.BreakerOpens)
	}
	return out
}

// replicaStats reads a replica's /stats reply.
func replicaStats(t *testing.T, r *wiredReplica) statsResponse {
	t.Helper()
	_, body := r.do(t, http.MethodGet, "/stats", nil)
	var s statsResponse
	if err := json.Unmarshal(body, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestMetricsAgreeWithStats: on both replicas of a fleet wired like a
// serving kiterd, once traffic has stopped, every counter family on
// /metrics that a /stats field mirrors equals that field. The traffic
// covers a cache miss and a hit, a failed and a panicking evaluation, a
// forward the peer serves, a submission deduplicated onto a held forward
// and a MaxPending rejection.
func TestMetricsAgreeWithStats(t *testing.T) {
	a, b, g := gatedFleet(t)
	local := ownedGraphs(t, a, a.addr(), 4)
	remote := ownedGraphs(t, a, b.addr(), 2)
	analyze := func(i int, body []byte, want int) {
		t.Helper()
		if code, reply := a.do(t, http.MethodPost, "/analyze", body); code != want {
			t.Fatalf("request %d: status %d, want %d: %s", i, code, want, reply)
		}
	}
	analyze(0, jsonGraph(t, local[0]), http.StatusOK)  // miss
	analyze(1, jsonGraph(t, local[0]), http.StatusOK)  // hit
	analyze(2, jsonGraph(t, remote[0]), http.StatusOK) // forwarded, served by b
	for i, spec := range []string{"solver.entry:error::1", "solver.entry:panic::1"} {
		set, err := faultinject.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		faultinject.Activate(set)
		analyze(3+i, jsonGraph(t, local[1+i]), http.StatusBadRequest)
		faultinject.Activate(nil)
	}

	// Hold a forward at b's gate, deduplicate a second submission onto it,
	// and have a third graph refused at MaxPending 1.
	g.shut()
	defer g.release() // a failed check must not leave b's server hung
	held := jsonGraph(t, remote[1])
	var wg sync.WaitGroup
	for i, inFlight := range []func() bool{
		func() bool { return a.e.PendingJobs() == 1 },
		func() bool { return a.e.Stats().Deduped == 1 },
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if code, reply := a.do(t, http.MethodPost, "/analyze", held); code != http.StatusOK {
				t.Errorf("request %d: status %d, want 200: %s", 5+i, code, reply)
			}
		}()
		for !inFlight() {
			time.Sleep(time.Millisecond)
		}
	}
	analyze(7, jsonGraph(t, local[3]), http.StatusServiceUnavailable)
	g.release()
	wg.Wait()

	as := replicaStats(t, a)
	if as.CacheHits == 0 || as.CacheMisses == 0 || as.Errors != 2 || as.Panics != 1 ||
		as.Deduped != 1 || as.Rejected != 1 || as.RemoteResults != 2 {
		t.Fatalf("traffic missed a counter: %+v", as.Stats)
	}
	if bs := replicaStats(t, b); len(bs.Cluster) != 1 || bs.Cluster[0].Served != 2 {
		t.Fatalf("peer served %+v, want 2 forwards", bs.Cluster)
	}
	for _, r := range []*wiredReplica{a, b} {
		stats := statsSamples(replicaStats(t, r))
		_, scrape := r.do(t, http.MethodGet, "/metrics", nil)
		metrics := counterSamples(t, string(scrape))
		for k, v := range metrics {
			if w, ok := stats[k]; !ok || w != v {
				t.Errorf("%s: /metrics %s = %g, /stats %g (present %v)", r.addr(), k, v, w, ok)
			}
		}
		for k, w := range stats {
			if _, ok := metrics[k]; !ok {
				t.Errorf("%s: /stats mirrors %s = %g, absent from /metrics", r.addr(), k, w)
			}
		}
	}
}
