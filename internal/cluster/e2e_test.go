package cluster

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"kiter/internal/engine"
	"kiter/internal/gen"
	"kiter/internal/sweep"
)

// replica is one in-process kiterd stand-in: engine + cluster + the HTTP
// endpoints the cluster layer relies on.
type replica struct {
	addr string
	eng  *engine.Engine
	cl   *Cluster
	srv  *http.Server
	// calls counts the /cluster/* requests the replica received; nil
	// unless the replica was started by startCacheReplica.
	calls *callCounter
}

// startFleet boots n replicas on loopback ports, each clustered with all
// the others, mirroring `kiterd -peers` wiring.
func startFleet(t *testing.T, n int) []*replica {
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
		cl, err := New(Config{
			Self:             addrs[i],
			Peers:            addrs, // self is filtered out
			ForwardTimeout:   10 * time.Second,
			ProbeInterval:    20 * time.Millisecond,
			MaxProbeInterval: 100 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("cluster.New(%s): %v", addrs[i], err)
		}
		eng := engine.New(engine.Config{Workers: 2, Dispatcher: cl})
		mux := http.NewServeMux()
		mux.Handle("/cluster/evaluate", cl.EvaluateHandler(eng, 30*time.Second))
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusOK)
		})
		srv := &http.Server{Handler: mux}
		go srv.Serve(lns[i])
		reps[i] = &replica{addr: addrs[i], eng: eng, cl: cl, srv: srv}
	}
	t.Cleanup(func() {
		for _, r := range reps {
			r.srv.Close()
		}
		for _, r := range reps {
			r.eng.Close()
		}
		for _, r := range reps {
			r.cl.Close()
		}
	})
	return reps
}

// testSpec is the sweep fixture shared by the e2e tests: 5×5 scenarios of
// the parametric video pipeline, single-method so evaluation counts are
// exact.
func testSpec(t *testing.T) *sweep.Expansion {
	t.Helper()
	spec := sweep.VideoPipelineSpec(5, 5)
	spec.Method = string(engine.MethodKIter)
	x, err := sweep.Compile(spec, false)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return x
}

func runSweep(t *testing.T, e *engine.Engine, x *sweep.Expansion) *sweep.Envelope {
	t.Helper()
	env, _ := runSweepPoints(t, e, x)
	return env
}

// runSweepPoints is runSweep that also returns every emitted point.
func runSweepPoints(t *testing.T, e *engine.Engine, x *sweep.Expansion) (*sweep.Envelope, []sweep.Point) {
	t.Helper()
	var points []sweep.Point
	r := sweep.Runner{Engine: e, PointTimeout: 30 * time.Second}
	env, err := r.Run(context.Background(), x, func(p sweep.Point) error {
		if p.Result == nil {
			return fmt.Errorf("scenario %d failed: %s", p.Scenario, p.Error)
		}
		points = append(points, p)
		return nil
	})
	if err != nil {
		t.Fatalf("sweep run: %v", err)
	}
	return env, points
}

// requireSameEnvelope compares everything deterministic about two sweep
// envelopes (counters, extremes, argmin/argmax, the Pareto front) while
// ignoring wall-clock and engine-stats noise.
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
	for i := range got.Pareto {
		g, w := got.Pareto[i], want.Pareto[i]
		if g.Scenario != w.Scenario || g.Axis != w.Axis || g.Throughput != w.Throughput {
			t.Fatalf("pareto[%d] diverges: %+v vs %+v", i, g, w)
		}
	}
}

func fleetEvaluations(reps []*replica) uint64 {
	var total uint64
	for _, r := range reps {
		total += r.eng.Stats().Evaluations
	}
	return total
}

// TestClusterSweepMatchesSingleNode: the same sweep through a 3-replica
// fleet and through a standalone engine must fold to the identical
// envelope, with a real share of the work forwarded to (and served by)
// peers.
func TestClusterSweepMatchesSingleNode(t *testing.T) {
	single := engine.New(engine.Config{Workers: 2})
	defer single.Close()
	want := runSweep(t, single, testSpec(t))

	reps := startFleet(t, 3)
	got := runSweep(t, reps[0].eng, testSpec(t))
	requireSameEnvelope(t, got, want)

	s0 := reps[0].eng.Stats()
	if s0.RemoteResults == 0 {
		t.Fatalf("no job was answered remotely: %+v", s0)
	}
	var forwarded, served uint64
	for _, p := range s0.Cluster {
		forwarded += p.Forwarded
		if p.FailedOver != 0 {
			t.Fatalf("healthy fleet failed over: %+v", s0.Cluster)
		}
	}
	for _, r := range reps[1:] {
		for _, p := range r.eng.Stats().Cluster {
			served += p.Served
		}
	}
	if forwarded == 0 || served == 0 {
		t.Fatalf("forwarded = %d, served = %d; want both > 0", forwarded, served)
	}
	// Work actually spread: the submitting replica did not evaluate
	// everything itself, and the fleet as a whole evaluated each scenario
	// exactly once (forwarding must not duplicate work).
	if s0.Evaluations == uint64(got.Scenarios) {
		t.Fatal("replica 0 evaluated every scenario itself")
	}
	if total := fleetEvaluations(reps); total != uint64(got.Scenarios) {
		t.Fatalf("fleet evaluations = %d, want %d", total, got.Scenarios)
	}
}

// fleetReport renders each replica's evaluation and forwarding counters
// and its view of every peer's breaker, for failure messages.
func fleetReport(reps []*replica) string {
	var b strings.Builder
	for _, r := range reps {
		s := r.eng.Stats()
		fmt.Fprintf(&b, "\n  %s: evaluations=%d remoteResults=%d", r.addr, s.Evaluations, s.RemoteResults)
		for _, p := range s.Cluster {
			fmt.Fprintf(&b, "\n    -> %s: forwarded=%d failedOver=%d retried=%d breaker=%s",
				p.Peer, p.Forwarded, p.FailedOver, p.Retried, p.BreakerState)
		}
	}
	return b.String()
}

// TestClusterWideDedup: duplicate submissions entering through different
// replicas — sequentially and concurrently — must cost exactly one
// evaluation fleet-wide: the owner's singleflight and memo cache are
// shared by construction. The guarantee holds while the owner is
// reachable; a forward that fails over to local evaluation may cost one
// more, so a wrong count prints every replica's failover counters.
func TestClusterWideDedup(t *testing.T) {
	reps := startFleet(t, 3)
	req := func() *engine.Request {
		return &engine.Request{Graph: gen.Figure2(), Method: engine.MethodKIter}
	}

	// Sequential: one replica after another.
	for _, r := range reps {
		res, err := r.eng.Submit(context.Background(), req())
		if err != nil {
			t.Fatalf("submit via %s: %v", r.addr, err)
		}
		if res.Throughput == nil || !res.Throughput.Optimal {
			t.Fatalf("bad result via %s: %+v", r.addr, res)
		}
	}
	if total := fleetEvaluations(reps); total != 1 {
		t.Fatalf("fleet evaluations after sequential duplicates = %d, want 1%s", total, fleetReport(reps))
	}

	// Concurrent: a fresh graph submitted 4× through every replica at
	// once. Same-replica duplicates coalesce on the local singleflight,
	// cross-replica ones on the owner's.
	g2 := gen.SampleRateConverter()
	var wg sync.WaitGroup
	errs := make(chan error, 12)
	for _, r := range reps {
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func(e *engine.Engine) {
				defer wg.Done()
				_, err := e.Submit(context.Background(), &engine.Request{Graph: g2, Method: engine.MethodKIter})
				errs <- err
			}(r.eng)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("concurrent submit: %v", err)
		}
	}
	if total := fleetEvaluations(reps); total != 2 {
		t.Fatalf("fleet evaluations after concurrent duplicates = %d, want 2 (one per distinct graph)%s",
			total, fleetReport(reps))
	}
}

// TestClusterFailover: with one replica's server dead (its engine and the
// rest of the fleet unaware until forwards fail), a sweep through a
// surviving replica still completes with the exact single-node envelope,
// the failures are counted, and the dead peer is out of the ring.
func TestClusterFailover(t *testing.T) {
	single := engine.New(engine.Config{Workers: 2})
	defer single.Close()
	want := runSweep(t, single, testSpec(t))

	reps := startFleet(t, 3)
	// Kill replica 2's HTTP server. Replica 0 still believes it healthy
	// (optimistic start), so the sweep's first job hashed onto it fails
	// over mid-run: evaluated locally, peer marked unhealthy, its
	// remaining keys spilling to ring successors.
	reps[2].srv.Close()

	got := runSweep(t, reps[0].eng, testSpec(t))
	requireSameEnvelope(t, got, want)

	s0 := reps[0].eng.Stats()
	var failedOver uint64
	deadHealthy := true
	for _, p := range s0.Cluster {
		if p.Peer == reps[2].addr {
			failedOver = p.FailedOver
			deadHealthy = p.Healthy
		}
	}
	if failedOver == 0 {
		t.Fatalf("no failover recorded against the dead peer: %+v", s0.Cluster)
	}
	if deadHealthy {
		t.Fatalf("dead peer still marked healthy: %+v", s0.Cluster)
	}
	// The survivors carried the whole sweep between them.
	if total := reps[0].eng.Stats().Evaluations + reps[1].eng.Stats().Evaluations; total != uint64(got.Scenarios) {
		t.Fatalf("survivor evaluations = %d, want %d", total, got.Scenarios)
	}
}
