package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"kiter/internal/cluster"
	"kiter/internal/csdf"
	"kiter/internal/engine"
	"kiter/internal/gen"
	"kiter/internal/sweep"
	"kiter/internal/telemetry"
)

// wiredReplica is one serving process as run assembles it, behind an
// httptest server.
type wiredReplica struct {
	srv *server
	e   *engine.Engine
	cl  *cluster.Cluster
	url string
}

// wiredFleet boots two replicas, each wired the way run wires a serving
// process: one registry with the runtime metrics, a cluster of both
// built by buildCluster, a memory→disk→fleet cache stack built by
// buildCache, the engine, the families and admission controller of
// instrument, and a flight recorder. Each replica is the other's cluster
// peer. maxPending is both engines' MaxPending (0 for the default).
func wiredFleet(t *testing.T, maxPending int) [2]*wiredReplica {
	t.Helper()
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
		e := engine.New(engine.Config{
			Workers:      2,
			CacheBackend: backend,
			MaxPending:   maxPending,
			Dispatcher:   cl,
			Metrics:      reg,
		})
		build := readBuildInfo()
		adm := instrument(reg, e, build)
		srv := newServer(e, testTemplate(), cl, observability{
			reg: reg, recorder: telemetry.NewRecorder(64), process: addrs[i], build: build,
		})
		srv.admission = adm
		srv.markReady()
		ts[i].Config.Handler = srv
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
	return fleet
}

// ownedGraphs returns n two-task chains, each with a distinct structure,
// that the ring of r's cluster places on owner.
func ownedGraphs(t *testing.T, r *wiredReplica, owner string, n int) []*csdf.Graph {
	t.Helper()
	var out []*csdf.Graph
	for d := int64(1); len(out) < n; d++ {
		if d > 1000 {
			t.Fatalf("found %d of %d graphs owned by %s", len(out), n, owner)
		}
		g := gen.TwoTaskChain(3, d)
		if r.cl.Owner(g.FingerprintHex()) == owner {
			out = append(out, g)
		}
	}
	return out
}

// addr returns the replica's advertised cluster address.
func (r *wiredReplica) addr() string { return r.cl.Self() }

// do serves one request on the replica in process and returns the status
// and body.
func (r *wiredReplica) do(t *testing.T, method, path string, body []byte) (int, []byte) {
	t.Helper()
	w := record(t, r.srv, method, path, body)
	return w.Code, w.Body.Bytes()
}

// scrapeFamilies parses a Prometheus text exposition into one line per
// family: "name type [label names] help". Label names exclude a
// histogram's le; a family whose samples carry different label sets lists
// their union.
func scrapeFamilies(t *testing.T, body string) []string {
	t.Helper()
	type family struct {
		typ, help string
		labels    map[string]bool
	}
	fams := map[string]*family{}
	get := func(name string) *family {
		if fams[name] == nil {
			fams[name] = &family{labels: map[string]bool{}}
		}
		return fams[name]
	}
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, help, _ := strings.Cut(rest, " ")
			get(name).help = help
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, _ := strings.Cut(rest, " ")
			get(name).typ = typ
			continue
		}
		name, labels := line, ""
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
			if line[i] == '{' {
				labels = line[i+1:]
			}
		}
		if fams[name] == nil {
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if base, ok := strings.CutSuffix(name, suffix); ok && fams[base] != nil {
					name = base
					break
				}
			}
		}
		f := fams[name]
		if f == nil {
			t.Fatalf("sample of an undeclared family: %q", line)
		}
		for labels != "" && labels[0] != '}' {
			key, rest, ok := strings.Cut(labels, `="`)
			if !ok {
				t.Fatalf("malformed labels in %q", line)
			}
			if key != "le" {
				f.labels[key] = true
			}
			// Skip the quoted value, honouring backslash escapes.
			i := 0
			for ; i < len(rest) && rest[i] != '"'; i++ {
				if rest[i] == '\\' {
					i++
				}
			}
			labels = strings.TrimPrefix(rest[min(i+1, len(rest)):], ",")
		}
	}
	var out []string
	for name, f := range fams {
		var labels []string
		for l := range f.labels {
			labels = append(labels, l)
		}
		sort.Strings(labels)
		out = append(out, fmt.Sprintf("%s %s %v %s", name, f.typ, labels, f.help))
	}
	sort.Strings(out)
	return out
}

// jsonKeys flattens a JSON document's object keys into dotted paths;
// array elements contribute the union of their keys under "name[]".
func jsonKeys(prefix string, v any, out map[string]bool) {
	switch v := v.(type) {
	case map[string]any:
		for k, c := range v {
			out[prefix+k] = true
			jsonKeys(prefix+k+".", c, out)
		}
	case []any:
		for _, c := range v {
			jsonKeys(strings.TrimSuffix(prefix, ".")+"[].", c, out)
		}
	}
}

// metricsInventory is every family a serving replica's /metrics carries
// once it has served local, cached, forwarded and swept work: name, type,
// label names (le aside) and help text.
var metricsInventory = []string{
	"kiter_admission_estimated_wait_seconds gauge [] Predicted queue wait for a job submitted now, in seconds.",
	"kiter_admission_shed_total counter [] Requests refused up front because their estimated queue wait exceeded the request budget.",
	"kiter_build_info gauge [goVersion revision version] Build metadata of the serving binary; value is always 1.",
	"kiter_cache_remote_errors_total counter [] Fleet-tier reads that failed in transit.",
	"kiter_cache_remote_rtt_seconds histogram [op] Round-trip time of fleet-tier cache reads, in seconds.",
	"kiter_cache_tier_bytes gauge [tier] Storage footprint of this tier, in bytes.",
	"kiter_cache_tier_entries gauge [tier] Entries currently stored in this tier.",
	"kiter_cache_tier_hits_total counter [tier] Memo-cache lookups served by this tier.",
	"kiter_cache_tier_misses_total counter [tier] Memo-cache lookups that missed this tier.",
	"kiter_cluster_breaker_opens_total counter [peer] Times the peer's circuit breaker opened.",
	"kiter_cluster_breaker_state gauge [peer] Peer circuit-breaker state: 0 closed, 1 half-open, 2 open.",
	"kiter_cluster_failed_over_total counter [peer] Forward attempts that fell back to local evaluation.",
	"kiter_cluster_forward_seconds histogram [outcome peer] Round-trip time of one forwarded evaluation, in seconds.",
	"kiter_cluster_forwarded_total counter [peer] Jobs forwarded to the peer with a result returned.",
	"kiter_cluster_peer_healthy gauge [peer] Local health view of the peer (1 = in the ring).",
	"kiter_cluster_probes_total counter [peer] Health probes sent to the peer.",
	"kiter_cluster_retried_total counter [peer] Forward attempts retried after a first failure.",
	"kiter_cluster_served_total counter [peer] Jobs evaluated locally on the peer's behalf.",
	"kiter_engine_cache_entries gauge [] Memoized results currently stored (summed over tiers).",
	"kiter_engine_cache_hits_total counter [] Submissions answered from the memo cache.",
	"kiter_engine_cache_lookup_seconds histogram [] Memo-cache lookup time (all tiers), in seconds.",
	"kiter_engine_cache_misses_total counter [] Submissions that missed the memo cache.",
	"kiter_engine_cancelled_total counter [] Abandoned evaluations.",
	"kiter_engine_deduped_total counter [] Submissions coalesced onto an in-flight identical job.",
	"kiter_engine_errors_total counter [] Failed evaluations.",
	"kiter_engine_evaluation_seconds histogram [] Wall time of successful evaluations, in seconds.",
	"kiter_engine_evaluations_total counter [] Jobs computed by local workers.",
	"kiter_engine_pending gauge [] Jobs submitted but not yet finished.",
	"kiter_engine_queue_wait_seconds histogram [] Time a job waited for a worker slot, in seconds.",
	"kiter_engine_rejected_total counter [] Submissions shed under overload.",
	"kiter_engine_remote_results_total counter [] Jobs answered by a cluster peer.",
	"kiter_engine_submitted_total counter [] Submit calls accepted by the engine.",
	"kiter_engine_workers gauge [] Configured worker pool size.",
	"kiter_go_gc_cycles_total counter [] Completed GC cycles.",
	"kiter_go_gc_pause_seconds histogram [] Stop-the-world GC pause durations, in seconds.",
	"kiter_go_gomaxprocs gauge [] GOMAXPROCS: processors usable by the scheduler.",
	"kiter_go_goroutines gauge [] Live goroutines in the process.",
	"kiter_go_heap_allocs_bytes_total counter [] Cumulative bytes allocated on the heap.",
	"kiter_go_heap_objects_bytes gauge [] Bytes occupied by live and not-yet-swept heap objects.",
	"kiter_go_memory_total_bytes gauge [] Total memory mapped by the Go runtime.",
	"kiter_go_sched_latency_seconds histogram [] Time goroutines spent runnable before running, in seconds.",
	"kiter_http_request_seconds histogram [code endpoint] HTTP request latency by endpoint and status code, in seconds.",
	"kiter_http_slowest_trace_seconds gauge [endpoint traceId] Duration of the slowest retained trace per endpoint that started in the last 2 minutes; traceId labels the flight-recorder trace to pivot to.",
	"kiter_panics_total counter [] Solver panics recovered into job errors (also counted under errors).",
	"kiter_race_wins_total counter [method] Default-method throughput answers per fallback-chain step.",
	"kiter_solver_arcs_built_total counter [] Constraint arcs built from phase pairs during expansion.",
	"kiter_solver_arcs_reused_total counter [] Constraint arcs replayed from a previous round's block cache.",
	"kiter_solver_howard_iterations histogram [] Howard policy-improvement rounds per solve (summed over K-Iter rounds).",
	"kiter_solver_kiter_rounds histogram [] K-Iter Algorithm 1 rounds per solve.",
	"kiter_solver_solve_seconds histogram [method] Per-method throughput solve time, in seconds.",
}

// statsKeys is the key set of a clustered replica's /stats reply. The
// build block's optional keys (revision, buildTime, dirty) depend on how
// the binary was built and are left out.
var statsKeys = []string{
	"admission",
	"admission.estimatedWaitMs",
	"admission.shed",
	"build",
	"build.goVersion",
	"build.version",
	"cacheEntries",
	"cacheHits",
	"cacheMisses",
	"cacheTiers",
	"cacheTiers[].bytes",
	"cacheTiers[].entries",
	"cacheTiers[].hits",
	"cacheTiers[].misses",
	"cacheTiers[].tier",
	"cancelled",
	"cluster",
	"cluster[].breakerOpens",
	"cluster[].breakerState",
	"cluster[].failedOver",
	"cluster[].forwarded",
	"cluster[].healthy",
	"cluster[].peer",
	"cluster[].probes",
	"cluster[].retried",
	"cluster[].served",
	"deduped",
	"errors",
	"evaluations",
	"hitRate",
	"latencySamples",
	"maxPending",
	"meanLatencyMs",
	"panics",
	"pending",
	"raceWins",
	"raceWins.kiter",
	"raceWins.periodic",
	"raceWins.symbolic",
	"rejected",
	"remoteResults",
	"submitted",
	"workers",
}

// TestMetricsAndStatsInventory pins the two telemetry surfaces of a
// replica wired like a serving kiterd: every /metrics family with its
// type, help text and label names, and the /stats key set. Its traffic —
// a local miss, a cache hit, a forward to the peer and a sweep — makes
// every family that waits for a first observation appear.
func TestMetricsAndStatsInventory(t *testing.T) {
	fleet := wiredFleet(t, 0)
	a, b := fleet[0], fleet[1]
	local := ownedGraphs(t, a, a.addr(), 1)[0]
	remote := ownedGraphs(t, a, b.addr(), 1)[0]
	for _, g := range []*csdf.Graph{local, local, remote} {
		if code, body := a.do(t, http.MethodPost, "/analyze", jsonGraph(t, g)); code != http.StatusOK {
			t.Fatalf("/analyze: %d %s", code, body)
		}
	}
	spec, err := json.Marshal(sweep.VideoPipelineSpec(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if code, body := a.do(t, http.MethodPost, "/sweep", spec); code != http.StatusOK {
		t.Fatalf("/sweep: %d %s", code, body)
	}

	_, scrape := a.do(t, http.MethodGet, "/metrics", nil)
	compareSets(t, "/metrics family", scrapeFamilies(t, string(scrape)), metricsInventory)

	_, stats := a.do(t, http.MethodGet, "/stats", nil)
	var doc any
	if err := json.Unmarshal(stats, &doc); err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	jsonKeys("", doc, keys)
	var got []string
	for k := range keys {
		switch k {
		case "build.revision", "build.buildTime", "build.dirty":
			continue
		}
		got = append(got, k)
	}
	sort.Strings(got)
	compareSets(t, "/stats key", got, statsKeys)
}

// compareSets reports every line one sorted set has and the other lacks.
func compareSets(t *testing.T, what string, got, want []string) {
	t.Helper()
	for _, g := range got {
		if !slices.Contains(want, g) {
			t.Errorf("unexpected %s: %q", what, g)
		}
	}
	for _, w := range want {
		if !slices.Contains(got, w) {
			t.Errorf("missing %s: %q", what, w)
		}
	}
}
