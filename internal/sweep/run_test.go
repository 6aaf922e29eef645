package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/big"
	"sync"
	"testing"

	"kiter/internal/csdf"
	"kiter/internal/engine"
	"kiter/internal/gen"
)

// namedRing builds a homogeneous ring with named buffers ("loop" closes
// it), the sweep-targetable version of gen.HSDFRing. Its optimal period is
// max(Σd/tokens, max d) — the classic event-graph formula.
func namedRing(durations []int64, tokens int64) *csdf.Graph {
	g := csdf.NewGraph("named-ring")
	n := len(durations)
	ids := make([]csdf.TaskID, n)
	for i, d := range durations {
		ids[i] = g.AddSDFTask(fmt.Sprintf("t%d", i), d)
	}
	for i := 0; i < n-1; i++ {
		g.AddSDFBuffer(fmt.Sprintf("b%d", i), ids[i], ids[i+1], 1, 1, 0)
	}
	g.AddSDFBuffer("loop", ids[n-1], ids[0], 1, 1, tokens)
	return g
}

func newTestEngine(t *testing.T) *engine.Engine {
	t.Helper()
	e := engine.New(engine.Config{Workers: 4})
	t.Cleanup(e.Close)
	return e
}

// TestRunEnvelopeOracle sweeps the duration of one task of a two-task
// chain, whose optimal period is exactly max(dA, dB) — an analytic oracle
// for the envelope fold.
func TestRunEnvelopeOracle(t *testing.T) {
	x := mustCompile(t, &Spec{
		Base:   GraphJSON(gen.TwoTaskChain(3, 4)),
		Method: "kiter",
		Parameters: []Param{
			{Name: "dA", Target: Target{Kind: "duration", Task: "A"}, Range: &Range{From: 1, To: 10}},
		},
	})
	r := Runner{Engine: newTestEngine(t)}
	var mu sync.Mutex
	var points []Point
	env, err := r.Run(context.Background(), x, func(p Point) error {
		mu.Lock()
		defer mu.Unlock()
		points = append(points, p)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 10 || env.Scenarios != 10 || env.Completed != 10 || env.Failed != 0 {
		t.Fatalf("points=%d envelope=%+v", len(points), env)
	}
	// Period oracle: max(dA, 4). Max throughput at dA ≤ 4 (period 4), min
	// at dA = 10 (period 10).
	for _, p := range points {
		if p.Result == nil || p.Result.Throughput == nil || p.Result.Throughput.Error != "" {
			t.Fatalf("scenario %d: bad result: %+v", p.Scenario, p.Result)
		}
		if !p.Result.Throughput.Optimal {
			t.Fatalf("scenario %d not optimal", p.Scenario)
		}
		dA := p.Params["dA"]
		want := dA
		if want < 4 {
			want = 4
		}
		wantRat := big.NewRat(want, 1)
		got, ok := new(big.Rat).SetString(p.Result.Throughput.Period)
		if !ok || got.Cmp(wantRat) != 0 {
			t.Fatalf("dA=%d: period %s, want %d", dA, p.Result.Throughput.Period, want)
		}
	}
	if env.ArgMin["dA"] != 10 {
		t.Fatalf("argMin = %v, want dA=10", env.ArgMin)
	}
	if env.ArgMax["dA"] > 4 {
		t.Fatalf("argMax = %v, want dA ≤ 4", env.ArgMax)
	}
	minR, _ := new(big.Rat).SetString(env.MinThroughput)
	maxR, _ := new(big.Rat).SetString(env.MaxThroughput)
	if minR == nil || maxR == nil || minR.Cmp(maxR) >= 0 {
		t.Fatalf("envelope min %s !< max %s", env.MinThroughput, env.MaxThroughput)
	}
	// Period mirrors: max throughput ↔ min period.
	if env.MinPeriod != "4" || env.MaxPeriod != "10" {
		t.Fatalf("period envelope = [%s, %s], want [4, 10]", env.MinPeriod, env.MaxPeriod)
	}
	if env.Stats.Evaluations == 0 || env.ElapsedMS < 0 {
		t.Fatalf("stats delta missing: %+v", env.Stats)
	}
}

// TestRunParetoFront sweeps the token count of an HSDF ring with period
// oracle max(Σd/tokens, max d): throughput rises with tokens until it
// saturates, so the Pareto front (tokens ↓, throughput ↑) is exactly the
// pre-saturation prefix.
func TestRunParetoFront(t *testing.T) {
	base := namedRing([]int64{1, 3, 4, 4}, 1) // Σd = 12, max d = 4
	x := mustCompile(t, &Spec{
		Base:   GraphJSON(base),
		Method: "kiter",
		Pareto: "tokens",
		Parameters: []Param{
			{Name: "tokens", Target: Target{Kind: "initial", Buffer: "loop"}, Range: &Range{From: 1, To: 6}},
		},
	})
	r := Runner{Engine: newTestEngine(t)}
	env, err := r.Run(context.Background(), x, nil)
	if err != nil {
		t.Fatal(err)
	}
	if env.Completed != 6 {
		t.Fatalf("completed = %d", env.Completed)
	}
	// Saturation at tokens = 3 (12/3 = 4 = max d): front = tokens 1, 2, 3.
	if len(env.Pareto) != 3 {
		t.Fatalf("front = %+v, want 3 points", env.Pareto)
	}
	var prev *big.Rat
	for i, pp := range env.Pareto {
		if pp.Axis != int64(i+1) {
			t.Fatalf("front axis order = %+v", env.Pareto)
		}
		r, ok := new(big.Rat).SetString(pp.Throughput)
		if !ok {
			t.Fatalf("front throughput %q", pp.Throughput)
		}
		if prev != nil && r.Cmp(prev) <= 0 {
			t.Fatal("front throughput not strictly increasing")
		}
		prev = r
	}
}

// TestRunEnvelopeDeterministic runs the same tie-heavy sweep repeatedly:
// argmin/argmax and the Pareto front must not depend on completion order.
func TestRunEnvelopeDeterministic(t *testing.T) {
	spec := VideoPipelineSpec(5, 5) // several scenarios share the max throughput
	spec.Method = "kiter"
	var ref *Envelope
	for i := 0; i < 4; i++ {
		x := mustCompile(t, spec)
		r := Runner{Engine: newTestEngine(t), Width: 8}
		env, err := r.Run(context.Background(), x, nil)
		if err != nil {
			t.Fatal(err)
		}
		env.ElapsedMS = 0
		env.Stats = engine.Stats{}
		if ref == nil {
			ref = env
			continue
		}
		got, _ := json.Marshal(env)
		want, _ := json.Marshal(ref)
		if string(got) != string(want) {
			t.Fatalf("run %d envelope differs:\n%s\nvs\n%s", i, got, want)
		}
	}
}

// TestRunEmitErrorCancels proves a failing emit (a disconnected client)
// aborts the sweep: Run returns the emit error and stops issuing scenarios.
func TestRunEmitErrorCancels(t *testing.T) {
	x := mustCompile(t, &Spec{
		Base:   GraphJSON(gen.TwoTaskChain(3, 4)),
		Method: "kiter",
		// NoCache keeps every scenario a real evaluation, so the family
		// cannot finish before the cancel takes effect.
		NoCache: true,
		Parameters: []Param{
			{Name: "dA", Target: Target{Kind: "duration", Task: "A"}, Range: &Range{From: 1, To: 200}},
		},
	})
	boom := errors.New("client gone")
	r := Runner{Engine: newTestEngine(t), Width: 2}
	var emitted int
	_, err := r.Run(context.Background(), x, func(p Point) error {
		emitted++
		if emitted == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want emit error", err)
	}
	if emitted > 5 {
		t.Fatalf("emit called %d times after failure", emitted)
	}
}

// TestRunContextCancel proves an outer cancellation surfaces as ctx.Err().
func TestRunContextCancel(t *testing.T) {
	x := mustCompile(t, &Spec{
		Base:    GraphJSON(gen.TwoTaskChain(3, 4)),
		Method:  "kiter",
		NoCache: true,
		Parameters: []Param{
			{Name: "dA", Target: Target{Kind: "duration", Task: "A"}, Range: &Range{From: 1, To: 500}},
		},
	})
	ctx, cancel := context.WithCancel(context.Background())
	r := Runner{Engine: newTestEngine(t), Width: 2}
	var once sync.Once
	_, err := r.Run(ctx, x, func(p Point) error {
		once.Do(cancel)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunMaterializationFailuresAreFailedPoints sweeps a rate down to zero:
// the infeasible scenario fails validation at materialization and is
// counted in Failed without aborting the family.
func TestRunMaterializationFailuresAreFailedPoints(t *testing.T) {
	x := mustCompile(t, &Spec{
		Base:   GraphJSON(gen.TwoTaskChain(3, 4)),
		Method: "kiter",
		Parameters: []Param{
			{Name: "rate", Target: Target{Kind: "production", Buffer: "A->B"}, Range: &Range{From: 0, To: 2}},
		},
	})
	r := Runner{Engine: newTestEngine(t)}
	var failed, ok int
	env, err := r.Run(context.Background(), x, func(p Point) error {
		if p.Error != "" {
			failed++
		} else {
			ok++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if failed != 1 || ok != 2 {
		t.Fatalf("failed=%d ok=%d", failed, ok)
	}
	if env.Failed != 1 || env.Completed != 2 {
		t.Fatalf("envelope = %+v", env)
	}
}

// TestRunDeadlockIsAnalysisError sweeps initial tokens to zero on a ring:
// the deadlocked scenario completes with a per-section error and counts as
// an analysis error, not a run failure.
func TestRunDeadlockIsAnalysisError(t *testing.T) {
	base := namedRing([]int64{1, 1, 1}, 2)
	x := mustCompile(t, &Spec{
		Base:   GraphJSON(base),
		Method: "kiter",
		Parameters: []Param{
			{Name: "tokens", Target: Target{Kind: "initial", Buffer: "loop"}, Range: &Range{From: 0, To: 2}},
		},
	})
	r := Runner{Engine: newTestEngine(t)}
	env, err := r.Run(context.Background(), x, nil)
	if err != nil {
		t.Fatal(err)
	}
	if env.Failed != 0 {
		t.Fatalf("deadlock counted as run failure: %+v", env)
	}
	if env.AnalysisErrors != 1 {
		t.Fatalf("analysisErrors = %d, want 1 (tokens=0 deadlocks)", env.AnalysisErrors)
	}
	if env.Completed != 3 {
		t.Fatalf("completed = %d", env.Completed)
	}
}

// TestPointJSONShape pins the wire contract of a streamed point.
func TestPointJSONShape(t *testing.T) {
	p := Point{Scenario: 3, Params: map[string]int64{"dA": 7}}
	buf, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(buf, &m); err != nil {
		t.Fatal(err)
	}
	if m["scenario"] != float64(3) {
		t.Fatalf("scenario field: %v", m)
	}
	if _, ok := m["result"]; ok {
		t.Fatal("empty result not omitted")
	}
}

// TestSweepScenarioAllocations pins the allocations of one uncached sweep
// scenario, from Materialize through Engine.Submit to a K-Iter answer,
// with telemetry off and kperiodic's workspace pool warm, so CI gates the
// per-scenario solve path by a count rather than a time.
func TestSweepScenarioAllocations(t *testing.T) {
	spec := VideoPipelineSpec(2, 2)
	spec.Method = "kiter"
	spec.NoCache = true
	x := mustCompile(t, spec)
	e := newTestEngine(t)
	scenario := func() {
		req, err := x.Request(3)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Submit(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if tp := res.Throughput; res.CacheHit || tp == nil || tp.Method != engine.MethodKIter || !tp.Optimal {
			t.Fatalf("want an uncached, optimal K-Iter answer, got %+v", res)
		}
	}
	scenario() // grow a pooled workspace
	// The fewest of 30 single runs: under the race detector sync.Pool
	// drops a random share of its entries, and a scenario that starts
	// from a new workspace allocates more, so one run in the pool's favour
	// is what the race build can be held to.
	allocs := math.Inf(1)
	for i := 0; i < 30; i++ {
		allocs = min(allocs, testing.AllocsPerRun(1, scenario))
	}
	// 36 allocations: the materialized graph and its facts, derived from
	// the base's, the request, the engine's job and result, and K-Iter's
	// trace. The scenario edits no rate, so it neither validates the
	// whole graph nor computes a repetition vector or components; the
	// compiled analysis list is already canonical, so Submit does not
	// copy it, and span and fault-injection names are constants.
	const ceiling = 36
	if allocs > ceiling {
		t.Errorf("one uncached sweep scenario allocates %.0f objects, want ≤ %d", allocs, ceiling)
	}
}
