package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"kiter/internal/csdf"
	"kiter/internal/engine"
	"kiter/internal/sdf3x"
	"kiter/internal/sweep"
)

// postSweep runs one in-process /sweep request and splits the NDJSON reply.
func postSweep(t *testing.T, srv *server, body []byte) (int, []sweep.Point, *sweep.Envelope) {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/sweep", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		return rec.Code, nil, nil
	}
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	var points []sweep.Point
	var env *sweep.Envelope
	for i, line := range lines {
		if i == len(lines)-1 {
			var el sweepEnvelopeLine
			if err := json.Unmarshal([]byte(line), &el); err != nil || el.Envelope == nil {
				t.Fatalf("last line is not an envelope: %q (%v)", line, err)
			}
			env = el.Envelope
			break
		}
		var p sweep.Point
		if err := json.Unmarshal([]byte(line), &p); err != nil {
			t.Fatalf("unparseable point line %q: %v", line, err)
		}
		points = append(points, p)
	}
	return rec.Code, points, env
}

// TestSweepEndToEnd is the subsystem acceptance path: ≥100 scenarios over
// one base graph stream through POST /sweep as one NDJSON line each plus a
// final envelope, and a second overlapping sweep is answered largely from
// the engine cache — the /stats counters prove the reuse.
func TestSweepEndToEnd(t *testing.T) {
	e := engine.New(engine.Config{Workers: 4})
	t.Cleanup(e.Close)
	tmpl := testTemplate()
	tmpl.Method = engine.MethodKIter
	srv := newServer(e, tmpl, nil, observability{})

	spec := sweep.VideoPipelineSpec(10, 10) // 100 scenarios
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	code, points, env := postSweep(t, srv, body)
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if len(points) != 100 || env.Scenarios != 100 {
		t.Fatalf("%d point lines, envelope %+v", len(points), env)
	}
	seen := map[int]bool{}
	for _, p := range points {
		if p.Error != "" {
			t.Fatalf("scenario %d failed: %s", p.Scenario, p.Error)
		}
		if p.Result == nil || p.Result.Throughput == nil || !p.Result.Throughput.Optimal {
			t.Fatalf("scenario %d: no optimal throughput", p.Scenario)
		}
		if len(p.Params) != 2 {
			t.Fatalf("scenario %d params = %v", p.Scenario, p.Params)
		}
		seen[p.Scenario] = true
	}
	if len(seen) != 100 {
		t.Fatalf("streamed %d distinct scenarios", len(seen))
	}
	if env.Completed != 100 || env.Failed != 0 {
		t.Fatalf("envelope counts: %+v", env)
	}
	if env.MinThroughput == "" || env.MaxThroughput == "" || env.ArgMin == nil || env.ArgMax == nil {
		t.Fatalf("envelope bounds missing: %+v", env)
	}
	if len(env.Pareto) == 0 {
		t.Fatalf("pareto front empty: %+v", env)
	}

	// Overlapping follow-up sweep: 2 extra columns, the other 100 scenarios
	// are structurally identical to the first sweep's and must come from
	// the cache (or in-flight dedup), visible in the envelope's stats delta
	// and the server-wide /stats.
	spec2 := sweep.VideoPipelineSpec(10, 12)
	body2, err := json.Marshal(spec2)
	if err != nil {
		t.Fatal(err)
	}
	code, points, env = postSweep(t, srv, body2)
	if code != http.StatusOK || len(points) != 120 {
		t.Fatalf("second sweep: status %d, %d points", code, len(points))
	}
	if env.Stats.CacheHits+env.Stats.Deduped < 100 {
		t.Fatalf("second sweep reused %d+%d results, want ≥ 100 (stats %+v)",
			env.Stats.CacheHits, env.Stats.Deduped, env.Stats)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var s engine.Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &s); err != nil {
		t.Fatal(err)
	}
	if s.CacheHits+s.Deduped == 0 {
		t.Fatal("/stats shows no cache or singleflight reuse across sweeps")
	}
}

func TestSweepRejectsBadRequests(t *testing.T) {
	srv := newTestServer(t)
	chain := `{"tasks":[{"name":"A","durations":[1]}]}`
	cases := []struct {
		name string
		body string
		want int
	}{
		{"not json", "nope", http.StatusBadRequest},
		{"unknown spec field", `{"base": ` + chain + `, "vaules": []}`, http.StatusBadRequest},
		{"no parameters", `{"base": ` + chain + `}`, http.StatusBadRequest},
		{"unknown task", `{"base": ` + chain + `, "parameters": [{"name": "p", "target": {"kind": "duration", "task": "Z"}, "values": [1]}]}`, http.StatusBadRequest},
		{"inverted range", `{"base": ` + chain + `, "parameters": [{"name": "p", "target": {"kind": "duration", "task": "A"}, "range": {"from": 9, "to": 1}}]}`, http.StatusBadRequest},
		{"bad method", `{"base": ` + chain + `, "method": "bogus", "parameters": [{"name": "p", "target": {"kind": "duration", "task": "A"}, "values": [1]}]}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/sweep", strings.NewReader(c.body)))
		if rec.Code != c.want {
			t.Errorf("%s: status = %d, want %d (body %s)", c.name, rec.Code, c.want, rec.Body)
		}
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/sweep", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /sweep: status = %d, want 405", rec.Code)
	}
}

// TestOversizedBodies lowers the server's body cap and checks both POST
// endpoints shed with 413 instead of reading an unbounded body. The cap is
// enforced by http.MaxBytesReader, so the over-cap read stops mid-body and
// the response carries the byte limit from the *http.MaxBytesError.
func TestOversizedBodies(t *testing.T) {
	srv := newTestServer(t)
	srv.maxBody = 256
	big := `{"base": {"tasks": [{"name": "` + strings.Repeat("x", 400) + `"}]}}`
	for _, path := range []string{"/analyze", "/sweep"} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(big)))
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status = %d, want 413", path, rec.Code)
		}
		if !strings.Contains(rec.Body.String(), "256") {
			t.Errorf("%s: 413 body does not name the limit: %s", path, rec.Body)
		}
	}
}

// TestReadBodyMaxBytesError pins readBody's error mapping: an over-cap
// body surfaces as *http.MaxBytesError → 413 (not a generic 400), and a
// body exactly at the cap is read in full.
func TestReadBodyMaxBytesError(t *testing.T) {
	srv := newTestServer(t)
	srv.maxBody = 64

	rec := httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodPost, "/analyze", strings.NewReader(strings.Repeat("a", 65)))
	if _, ok := srv.readBody(rec, r); ok {
		t.Fatal("over-cap body accepted")
	}
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", rec.Code)
	}

	// Exactly at the cap: MaxBytesReader(n) admits n bytes.
	rec = httptest.NewRecorder()
	r = httptest.NewRequest(http.MethodPost, "/analyze", strings.NewReader(strings.Repeat("a", 64)))
	body, ok := srv.readBody(rec, r)
	if !ok || len(body) != 64 {
		t.Fatalf("at-cap body rejected: ok=%v len=%d (status %d)", ok, len(body), rec.Code)
	}
}

// TestAnalyzeEnvelopeUnknownFields: envelopes are decoded strictly (a
// typo'd knob must not silently fall back to defaults), while bare graph
// bodies keep their lenient decoding for compatibility.
func TestAnalyzeEnvelopeUnknownFields(t *testing.T) {
	srv := newTestServer(t)
	env := `{"graph": ` + string(graphBody(t)) + `, "metod": "kiter"}`
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/analyze", strings.NewReader(env)))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "metod") {
		t.Fatalf("typo'd envelope: status %d, body %s", rec.Code, rec.Body)
	}
	// A bare graph with a stray top-level key still analyzes.
	var bare map[string]json.RawMessage
	if err := json.Unmarshal(graphBody(t), &bare); err != nil {
		t.Fatal(err)
	}
	bare["comment"] = json.RawMessage(`"made with <3"`)
	body, _ := json.Marshal(bare)
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/analyze", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("bare graph with extra key: status %d, body %s", rec.Code, rec.Body)
	}
}

// slowGraph returns an SDF pair whose K = q expansion has about n nodes —
// an evaluation slow enough (~100ms per 2·10⁵ nodes) to cancel mid-flight.
func slowGraph(n int64) *csdf.Graph {
	g := csdf.NewGraph(fmt.Sprintf("slow-%d", n))
	a := g.AddSDFTask("A", 3)
	b := g.AddSDFTask("B", 2)
	g.AddSDFBuffer("ab", a, b, 1, n, 0)
	g.AddSDFBuffer("ba", b, a, n, 1, n)
	return g
}

// awaitStat polls an engine counter until it passes a threshold.
func awaitStat(t *testing.T, deadline time.Duration, what string, get func() uint64, min uint64) {
	t.Helper()
	stop := time.Now().Add(deadline)
	for time.Now().Before(stop) {
		if get() >= min {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("%s did not reach %d within %v", what, min, deadline)
}

// TestAnalyzeClientDisconnectCancelsJob drives a slow /analyze over a real
// connection, drops the client once the evaluation is running, and asserts
// the engine's job context was cancelled (the evaluation aborts and is
// counted, rather than running to completion for nobody).
func TestAnalyzeClientDisconnectCancelsJob(t *testing.T) {
	e := engine.New(engine.Config{Workers: 2})
	t.Cleanup(e.Close)
	srv := newServer(e, testTemplate(), nil, observability{})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	var buf bytes.Buffer
	if err := sdf3x.WriteJSON(&buf, slowGraph(1_500_000)); err != nil {
		t.Fatal(err)
	}
	env := fmt.Sprintf(`{"graph": %s, "method": "expansion"}`, buf.String())

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/analyze", strings.NewReader(env))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if resp != nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	// The evaluation counter moves when a worker picks the job up; cancel
	// while it is mid-expansion.
	awaitStat(t, 15*time.Second, "evaluations", func() uint64 { return e.Stats().Evaluations }, 1)
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("request succeeded despite cancellation")
	}
	awaitStat(t, 15*time.Second, "cancelled jobs", func() uint64 { return e.Stats().Cancelled }, 1)
}

// TestSweepClientDisconnectCancelsJobs streams a slow sweep over a real
// connection, reads the first NDJSON line, then disconnects: in-flight
// scenario solves must be cancelled (job contexts fire) and the engine
// must drain instead of finishing the family for a dead client.
func TestSweepClientDisconnectCancelsJobs(t *testing.T) {
	e := engine.New(engine.Config{Workers: 2})
	t.Cleanup(e.Close)
	srv := newServer(e, testTemplate(), nil, observability{})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	spec := sweep.Spec{
		Base:    sweep.GraphJSON(slowGraph(400_000)),
		Method:  "expansion",
		NoCache: true,
		Parameters: []sweep.Param{
			{Name: "m0", Target: sweep.Target{Kind: "initial", Buffer: "ba"},
				Range: &sweep.Range{From: 400_000, To: 400_063}},
		},
	}
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/sweep", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	// Read one streamed point, proving the sweep is live, then vanish.
	line := make([]byte, 1)
	for {
		if _, err := resp.Body.Read(line); err != nil || line[0] == '\n' {
			break
		}
	}
	cancel()
	awaitStat(t, 20*time.Second, "cancelled jobs", func() uint64 { return e.Stats().Cancelled }, 1)
	// The family stops early: pending drains without evaluating all 64.
	stop := time.Now().Add(20 * time.Second)
	for time.Now().Before(stop) && e.Stats().Pending > 0 {
		time.Sleep(5 * time.Millisecond)
	}
	if p := e.Stats().Pending; p != 0 {
		t.Fatalf("engine still has %d pending jobs after disconnect", p)
	}
	if evals := e.Stats().Evaluations; evals >= 64 {
		t.Fatalf("all %d scenarios evaluated despite disconnect", evals)
	}
}

// TestRunSweepFileFailuresExitNonZero runs the -sweep front-end over a spec
// whose rate hits zero: the infeasible scenario is a failed point, the
// stream still carries every line plus the envelope, and the run returns an
// error so kiterd exits non-zero.
func TestRunSweepFileFailuresExitNonZero(t *testing.T) {
	dir := t.TempDir()
	spec := sweep.Spec{
		Base:   sweep.GraphJSON(slowGraph(4)),
		Method: "kiter",
		Parameters: []sweep.Param{
			{Name: "rate", Target: sweep.Target{Kind: "production", Buffer: "ba"},
				Range: &sweep.Range{From: 0, To: 2}},
		},
	}
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	e := engine.New(engine.Config{Workers: 2})
	t.Cleanup(e.Close)
	var out bytes.Buffer
	err = runSweepFile(e, path, testTemplate(), &out)
	if err == nil || !strings.Contains(err.Error(), "1 of 3 scenarios failed") {
		t.Fatalf("err = %v, want failure count", err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 4 { // 3 points + envelope
		t.Fatalf("streamed %d lines:\n%s", len(lines), out.String())
	}
	var el sweepEnvelopeLine
	if err := json.Unmarshal([]byte(lines[3]), &el); err != nil || el.Envelope == nil {
		t.Fatalf("missing envelope line: %q", lines[3])
	}
	if el.Envelope.Failed != 1 || el.Envelope.Completed != 2 {
		t.Fatalf("envelope = %+v", el.Envelope)
	}

	// A clean spec returns nil (exit zero).
	clean := spec
	clean.Parameters = []sweep.Param{
		{Name: "m0", Target: sweep.Target{Kind: "initial", Buffer: "ba"},
			Range: &sweep.Range{From: 4, To: 6}},
	}
	data, _ = json.Marshal(clean)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := runSweepFile(e, path, testTemplate(), &out); err != nil {
		t.Fatalf("clean sweep failed: %v\n%s", err, out.String())
	}

	// Spec-level failures (unreadable file, bad spec) also error.
	if err := runSweepFile(e, filepath.Join(dir, "missing.json"), testTemplate(), &out); err == nil {
		t.Fatal("missing spec file accepted")
	}
}

// TestSweepTraceHoldsOnlySampledScenarios: a traced 64-scenario sweep
// files a root whose direct children are the sampled sweep.scenario spans
// alone, at most sweepTraceSamples of them, and whose attributes are the
// sweep's own. Unsampled scenarios record nothing: no engine phase hangs
// off the root and no per-scenario attribute overwrites its attributes.
func TestSweepTraceHoldsOnlySampledScenarios(t *testing.T) {
	srv := newObsServer(t)
	body, err := json.Marshal(sweep.VideoPipelineSpec(8, 8))
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/sweep", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("/sweep status = %d, body %s", rec.Code, rec.Body)
	}
	records := getTrace(t, srv, rec.Header().Get(traceIDHeader))
	if len(records) != 1 || records[0].Root == nil {
		t.Fatalf("want one recorded sweep trace, got %+v", records)
	}
	root := records[0].Root
	if root.Attrs["scenarios"] != float64(64) {
		t.Fatalf("root attrs %v, want scenarios = 64", root.Attrs)
	}
	for _, key := range []string{"fingerprint", "method", "cacheHit"} {
		if v, ok := root.Attrs[key]; ok {
			t.Errorf("sweep root carries a scenario's %s = %v", key, v)
		}
	}
	if n := len(root.Children); n == 0 || n > sweepTraceSamples {
		t.Errorf("sweep root has %d children, want 1..%d", n, sweepTraceSamples)
	}
	for _, c := range root.Children {
		if c.Name != "sweep.scenario" {
			t.Errorf("sweep root has a direct %q child", c.Name)
		}
	}
}

// TestBatchSummaryCountsFailures pins that the closing NDJSON summary
// reports the failure count (and runBatch errors → exit 1).
func TestBatchSummaryCountsFailures(t *testing.T) {
	dir := t.TempDir()
	g := slowGraph(4)
	if err := sdf3x.WriteFile(filepath.Join(dir, "ok.json"), g); err != nil {
		t.Fatal(err)
	}
	paths := []string{filepath.Join(dir, "ok.json"), filepath.Join(dir, "missing.json")}
	e := engine.New(engine.Config{Workers: 2})
	t.Cleanup(e.Close)
	var out bytes.Buffer
	err := runBatch(e, paths, testTemplate(), &out)
	if err == nil || !strings.Contains(err.Error(), "1 of 2") {
		t.Fatalf("err = %v", err)
	}
	_, sum := readBatch(t, out.String())
	if sum.Summary.Graphs != 2 || sum.Summary.Failed != 1 {
		t.Fatalf("summary = %+v, want 2 graphs / 1 failed:\n%s", sum.Summary, out.String())
	}
}
