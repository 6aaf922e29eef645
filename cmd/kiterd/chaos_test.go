package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"kiter/internal/cluster"
	"kiter/internal/engine"
	"kiter/internal/faultinject"
	"kiter/internal/resilience"
	"kiter/internal/sweep"
	"kiter/internal/telemetry"
)

// chaosReplica is one full in-process kiterd stack: engine + disk cache
// tier + cluster + the real HTTP server with admission control, exactly
// what `kiterd -peers ... -cache-dir ...` assembles.
type chaosReplica struct {
	addr string
	eng  *engine.Engine
	cl   *cluster.Cluster
	hs   *http.Server
	rec  *telemetry.Recorder
}

// startKiterdFleet boots n full replica stacks on loopback ports and
// returns them with an idempotent stop function.
func startKiterdFleet(t *testing.T, n int) ([]*chaosReplica, func()) {
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
	reps := make([]*chaosReplica, n)
	for i := range reps {
		reg := telemetry.NewRegistry()
		backend, err := buildCache(256, t.TempDir(), 8<<20, nil)
		if err != nil {
			t.Fatalf("cache backend: %v", err)
		}
		rec := telemetry.NewRecorder(256)
		cl, err := cluster.New(cluster.Config{
			Self:             addrs[i],
			Peers:            addrs,
			ForwardTimeout:   10 * time.Second,
			ProbeInterval:    20 * time.Millisecond,
			MaxProbeInterval: 100 * time.Millisecond,
			RetryBackoff:     2 * time.Millisecond,
			Metrics:          reg,
			Recorder:         rec,
		})
		if err != nil {
			t.Fatalf("cluster.New(%s): %v", addrs[i], err)
		}
		eng := engine.New(engine.Config{
			Workers:      2,
			Dispatcher:   cl,
			CacheBackend: backend,
			Metrics:      reg,
		})
		registerEngineCollector(reg, eng)
		adm := resilience.NewAdmission(resilience.Estimator{
			QuantileWait: eng.QueueWaitQuantile,
			Pending:      eng.PendingJobs,
			Workers:      eng.WorkerCount(),
		})
		registerAdmissionCollector(reg, adm)
		tmpl := requestTemplate{
			Method:   engine.MethodAuto,
			Analyses: []engine.AnalysisKind{engine.AnalysisThroughput},
			Timeout:  30 * time.Second,
		}
		srv := newServer(eng, tmpl, cl, observability{reg: reg, recorder: rec, process: addrs[i]})
		srv.admission = adm
		srv.markReady()
		hs := &http.Server{Handler: srv}
		go hs.Serve(lns[i])
		reps[i] = &chaosReplica{addr: addrs[i], eng: eng, cl: cl, hs: hs, rec: rec}
	}
	var stopped bool
	stop := func() {
		if stopped {
			return
		}
		stopped = true
		for _, r := range reps {
			r.hs.Close()
		}
		for _, r := range reps {
			r.eng.Close()
		}
		for _, r := range reps {
			r.cl.Close()
		}
	}
	t.Cleanup(stop)
	return reps, stop
}

// chaosSweepBody is the shared sweep fixture: 5×5 video-pipeline
// scenarios under the default method.
func chaosSweepBody(t *testing.T) []byte {
	t.Helper()
	spec := sweep.VideoPipelineSpec(5, 5)
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// streamSweep POSTs a sweep to one replica, consumes the NDJSON stream
// and returns the closing envelope.
func streamSweep(t *testing.T, addr string, body []byte) *sweep.Envelope {
	t.Helper()
	resp, err := http.Post("http://"+addr+"/sweep", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("POST /sweep: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /sweep: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var env *sweep.Envelope
	for sc.Scan() {
		var el sweepEnvelopeLine
		if err := json.Unmarshal(sc.Bytes(), &el); err == nil && el.Envelope != nil {
			env = el.Envelope
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading sweep stream: %v", err)
	}
	if env == nil {
		t.Fatal("sweep stream ended without an envelope line")
	}
	return env
}

// requireSameEnvelope compares everything deterministic about two sweep
// envelopes, ignoring wall-clock and engine-stats noise.
func requireSameEnvelope(t *testing.T, got, want *sweep.Envelope) {
	t.Helper()
	if got.Scenarios != want.Scenarios || got.Completed != want.Completed ||
		got.Failed != want.Failed || got.AnalysisErrors != want.AnalysisErrors {
		t.Fatalf("envelope counters diverge: got %d/%d/%d/%d, want %d/%d/%d/%d",
			got.Scenarios, got.Completed, got.Failed, got.AnalysisErrors,
			want.Scenarios, want.Completed, want.Failed, want.AnalysisErrors)
	}
	if got.MinThroughput != want.MinThroughput || got.MaxThroughput != want.MaxThroughput ||
		got.MinPeriod != want.MinPeriod || got.MaxPeriod != want.MaxPeriod {
		t.Fatalf("envelope extremes diverge: got [%s, %s], want [%s, %s]",
			got.MinThroughput, got.MaxThroughput, want.MinThroughput, want.MaxThroughput)
	}
	if got.ArgMinIndex != want.ArgMinIndex || got.ArgMaxIndex != want.ArgMaxIndex {
		t.Fatalf("arg extremes diverge: got %d/%d, want %d/%d",
			got.ArgMinIndex, got.ArgMaxIndex, want.ArgMinIndex, want.ArgMaxIndex)
	}
	if len(got.Pareto) != len(want.Pareto) {
		t.Fatalf("pareto sizes diverge: %d vs %d", len(got.Pareto), len(want.Pareto))
	}
}

// fetchStats scrapes one replica's /stats endpoint.
func fetchStats(t *testing.T, addr string) statsResponse {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/stats")
	if err != nil {
		t.Fatalf("GET /stats on %s: %v", addr, err)
	}
	defer resp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding /stats: %v", err)
	}
	return st
}

// TestChaosSweepSurvivesFaults is the fault-tolerance acceptance test: a
// 3-replica fleet runs a sweep while chaos injects solver panics, disk
// cache read errors and forward failures, and one peer is dead. The
// envelope must be byte-for-byte the clean run's — every fault absorbed by
// recovery, fallback or retry — with the recovery counters visible on
// /stats and /metrics and zero crashes.
func TestChaosSweepSurvivesFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos e2e under -short")
	}
	body := chaosSweepBody(t)

	// Reference run: a clean fleet, no faults.
	cleanReps, stopClean := startKiterdFleet(t, 3)
	cleanEnv := streamSweep(t, cleanReps[0].addr, body)
	stopClean()
	if cleanEnv.Failed != 0 || cleanEnv.Completed != cleanEnv.Scenarios {
		t.Fatalf("clean run not clean: %+v", cleanEnv)
	}

	// Chaos run: fresh fleet (fresh caches and counters), armed faults.
	//   - the K-Iter step of the default method always panics (recovered
	//     per step; symbolic execution still certifies optimality)
	//   - the first 6 disk-cache reads fail (degrade to miss)
	//   - the first 2 forward attempts fail (exercise retry + breaker
	//     accounting without a network fault)
	set, err := faultinject.Parse("solver.kiter:panic,cache.get:error::6,dispatch.forward:error::2")
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Activate(set)
	defer faultinject.Activate(nil)

	reps, _ := startKiterdFleet(t, 3)
	// Kill the peer that owns the most scenarios before the sweep starts,
	// so the dead-peer phase does not depend on how far the stream got.
	// The entry replica forwards every scenario the dead peer owns and
	// only an open breaker reroutes them, so with at least two of them
	// the first forward fails and is retried, fails over, and the next
	// one crosses the default breaker threshold of 3 consecutive failures.
	dead, survivor := killBusiestPeer(t, reps, body)
	env := streamSweep(t, reps[0].addr, body)
	requireSameEnvelope(t, env, cleanEnv)

	// Recovery counters: solver panics were recovered, forwards failed
	// over and retried, and at least one breaker opened.
	var failedOver, retried, opens uint64
	var panics uint64
	for _, r := range []*chaosReplica{reps[0], survivor} { // the dead peer's server is closed
		st := fetchStats(t, r.addr)
		panics += st.Panics
		for _, p := range st.Cluster {
			failedOver += p.FailedOver
			retried += p.Retried
			opens += p.BreakerOpens
		}
	}
	if panics == 0 {
		t.Fatal("/stats shows no recovered panics")
	}
	if failedOver == 0 || retried == 0 || opens == 0 {
		t.Fatalf("recovery counters missing (dead peer %s): failedOver=%d retried=%d breakerOpens=%d",
			dead.addr, failedOver, retried, opens)
	}

	// The same counters surface on the Prometheus exposition.
	resp, err := http.Get("http://" + reps[0].addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	expo := string(raw)
	for _, family := range []string{
		"kiter_panics_total",
		"kiter_cluster_breaker_state",
		"kiter_cluster_breaker_opens_total",
		"kiter_cluster_retried_total",
		"kiter_admission_shed_total",
	} {
		if !strings.Contains(expo, family) {
			t.Fatalf("/metrics missing %s family:\n%.2000s", family, expo)
		}
	}

	// Artifacts for the CI chaos-smoke step: final stats snapshots.
	if dir := os.Getenv("CHAOS_ARTIFACT_DIR"); dir != "" {
		if err := os.MkdirAll(dir, 0o755); err == nil {
			for i, r := range []*chaosReplica{reps[0], survivor} {
				_ = writeStatsFile(filepath.Join(dir, fmt.Sprintf("chaos-replica-%d.json", i)), r.eng.Stats())
			}
			_ = os.WriteFile(filepath.Join(dir, "chaos-metrics.prom"), []byte(expo), 0o644)
		}
	}
}

// killBusiestPeer closes the HTTP server of whichever non-entry replica
// owns the most of the sweep's distinct scenario fingerprints on the ring,
// and returns it and the other non-entry replica. It fails the test, with
// the ownership table, when that replica owns fewer than two: the chaos
// test needs two forwards to reach the dead peer.
func killBusiestPeer(t *testing.T, reps []*chaosReplica, body []byte) (dead, survivor *chaosReplica) {
	t.Helper()
	spec, err := sweep.ParseSpec(body)
	if err != nil {
		t.Fatal(err)
	}
	x, err := sweep.Compile(spec, false)
	if err != nil {
		t.Fatal(err)
	}
	owned := map[string]int{}
	seen := map[string]bool{}
	for i := 0; i < x.Total(); i++ {
		g, err := x.Materialize(i)
		if err != nil {
			t.Fatal(err)
		}
		if fp := g.FingerprintHex(); !seen[fp] {
			seen[fp] = true
			owned[reps[0].cl.Owner(fp)]++
		}
	}
	dead, survivor = reps[1], reps[2]
	if owned[survivor.addr] > owned[dead.addr] {
		dead, survivor = survivor, dead
	}
	if owned[dead.addr] < 2 {
		t.Fatalf("the busiest peer %s owns %d of %d distinct scenarios, want ≥ 2; ownership: %v",
			dead.addr, owned[dead.addr], len(seen), owned)
	}
	dead.hs.Close()
	return dead, survivor
}
