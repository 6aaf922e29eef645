package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"kiter/internal/engine"
	"kiter/internal/sweep"
	"kiter/internal/telemetry"
)

// newObsServer builds a server with the full observability wiring of a real
// kiterd process: a shared registry feeding the engine instruments, the
// families instrument adds, the /metrics endpoint and the flight recorder
// behind /debug/traces.
func newObsServer(t *testing.T) *server {
	t.Helper()
	reg := telemetry.NewRegistry()
	e := engine.New(engine.Config{Workers: 4, Metrics: reg})
	t.Cleanup(e.Close)
	instrument(reg, e, readBuildInfo())
	return newServer(e, testTemplate(), nil, observability{reg: reg, recorder: telemetry.NewRecorder(256)})
}

// scrape GETs /metrics and returns the exposition body.
func scrape(t *testing.T, srv *server) string {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status = %d, body %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	return rec.Body.String()
}

// postAnalyze POSTs the Figure 2 graph and returns the reply with its
// response headers.
func postAnalyze(t *testing.T, srv *server, path string) (analyzeResponse, http.Header) {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(graphBody(t))))
	if rec.Code != http.StatusOK {
		t.Fatalf("%s status = %d, body %s", path, rec.Code, rec.Body)
	}
	var resp analyzeResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp, rec.Header()
}

// getTrace pulls one trace's local records from GET /debug/traces/{id}.
func getTrace(t *testing.T, srv *server, traceID string) []telemetry.RecordedTrace {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/traces/"+traceID, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /debug/traces/%s status = %d, body %s", traceID, rec.Code, rec.Body)
	}
	var doc struct {
		Records []telemetry.RecordedTrace `json:"records"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	return doc.Records
}

// TestMetricsEndpoint is the scrape acceptance path: after real traffic,
// GET /metrics carries every expected family, and each histogram's
// cumulative bucket counts are monotone with the +Inf bucket equal to the
// sample count.
func TestMetricsEndpoint(t *testing.T) {
	srv := newObsServer(t)
	postAnalyze(t, srv, "/analyze")
	postAnalyze(t, srv, "/analyze") // second hit exercises the cache counters

	body := scrape(t, srv)
	for _, family := range []string{
		"kiter_http_request_seconds",
		"kiter_engine_queue_wait_seconds",
		"kiter_engine_evaluation_seconds",
		"kiter_engine_cache_lookup_seconds",
		"kiter_solver_solve_seconds",
		"kiter_engine_submitted_total",
		"kiter_engine_cache_hits_total",
		"kiter_engine_evaluations_total",
		"kiter_race_wins_total",
		"kiter_http_slowest_trace_seconds",
		"kiter_engine_workers",
		"kiter_build_info",
	} {
		if !strings.Contains(body, "# TYPE "+family+" ") {
			t.Errorf("scrape missing family %s", family)
		}
	}
	if !strings.Contains(body, `kiter_engine_submitted_total 2`) {
		t.Errorf("submitted_total != 2 in scrape:\n%s", grepLines(body, "submitted_total"))
	}
	if !strings.Contains(body, `kiter_http_request_seconds_count{endpoint="/analyze",code="200"} 2`) {
		t.Errorf("http histogram count missing:\n%s", grepLines(body, "kiter_http_request_seconds_count"))
	}
	checkHistogramMonotone(t, body, "kiter_engine_evaluation_seconds")
	checkHistogramMonotone(t, body, "kiter_http_request_seconds")

	// The exemplar names a trace /debug/traces can serve.
	_, rest, ok := strings.Cut(body, `kiter_http_slowest_trace_seconds{endpoint="/analyze",traceId="`)
	if !ok {
		t.Fatalf("no /analyze exemplar:\n%s", grepLines(body, "slowest_trace"))
	}
	tid, _, _ := strings.Cut(rest, `"`)
	if recs := getTrace(t, srv, tid); len(recs) != 1 || recs[0].Endpoint != "/analyze" {
		t.Fatalf("exemplar trace %s resolves to %+v", tid, recs)
	}
}

// grepLines filters an exposition body for error messages.
func grepLines(body, substr string) string {
	var out []string
	for _, line := range strings.Split(body, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// checkHistogramMonotone asserts the Prometheus histogram contract on one
// family: bucket counts are cumulative (non-decreasing in le order, which
// is emission order) and the final +Inf bucket matches _count.
func checkHistogramMonotone(t *testing.T, body, family string) {
	t.Helper()
	var prev float64
	var lastBucket, count float64
	var sawBucket, sawInf bool
	for _, line := range strings.Split(body, "\n") {
		switch {
		case strings.HasPrefix(line, family+"_bucket"):
			fields := strings.Fields(line)
			v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
			if err != nil {
				t.Fatalf("unparseable bucket line %q: %v", line, err)
			}
			if strings.Contains(line, `le="+Inf"`) {
				sawInf, prev = true, 0 // family may have several label sets
			} else if v < prev {
				t.Fatalf("non-monotone cumulative buckets in %s: %q after %g", family, line, prev)
			} else {
				prev = v
			}
			lastBucket = v
			sawBucket = true
		case strings.HasPrefix(line, family+"_count"):
			fields := strings.Fields(line)
			count, _ = strconv.ParseFloat(fields[len(fields)-1], 64)
			if sawInf && count != lastBucket {
				t.Fatalf("%s: +Inf bucket %g != count %g", family, lastBucket, count)
			}
		}
	}
	if !sawBucket || !sawInf {
		t.Fatalf("no buckets (or no +Inf bucket) found for %s", family)
	}
	if count == 0 {
		t.Fatalf("%s observed no samples", family)
	}
}

// TestAnalyzeTrace exercises record-then-pull: /analyze names its trace in
// X-Kiter-Trace-Id, and GET /debug/traces/{id} returns a span tree whose
// phases (cache lookup, queue wait, analysis sections) sum to no more than
// the root's wall time.
func TestAnalyzeTrace(t *testing.T) {
	srv := newObsServer(t)
	_, hdr := postAnalyze(t, srv, "/analyze")
	tid := hdr.Get(traceIDHeader)
	if tid == "" {
		t.Fatal("/analyze set no X-Kiter-Trace-Id")
	}
	recs := getTrace(t, srv, tid)
	if len(recs) != 1 {
		t.Fatalf("trace %s has %d records, want 1", tid, len(recs))
	}
	if recs[0].RequestID == "" || recs[0].RequestID != hdr.Get(requestIDHeader) {
		t.Fatalf("recorded requestId %q, X-Request-ID %q", recs[0].RequestID, hdr.Get(requestIDHeader))
	}
	root := recs[0].Root
	if root == nil {
		t.Fatal("recorded trace carries no span tree")
	}
	if root.Name != "analyze" {
		t.Fatalf("root span = %q, want analyze", root.Name)
	}
	names := map[string]bool{}
	var childSum float64
	for _, c := range root.Children {
		names[c.Name] = true
		childSum += c.DurMS
	}
	for _, want := range []string{"cache.lookup", "queue.wait", "analysis.throughput"} {
		if !names[want] {
			t.Errorf("trace missing %s child; have %v", want, root.Children)
		}
	}
	// The direct children run sequentially (lookup → queue → analyses), so
	// their durations fit inside the root span; 1ms of slack absorbs clock
	// granularity on the individual measurements.
	if childSum > root.DurMS+1.0 {
		t.Fatalf("children sum %.3fms exceeds root %.3fms", childSum, root.DurMS)
	}

	// The analysis section contains the actual solve phase.
	var throughput *telemetry.SpanNode
	for _, c := range root.Children {
		if c.Name == "analysis.throughput" {
			throughput = c
		}
	}
	var sawSolve bool
	for _, c := range throughput.Children {
		if strings.HasPrefix(c.Name, "solve.") {
			sawSolve = true
		}
	}
	if !sawSolve {
		t.Fatalf("analysis.throughput has no solve child: %+v", throughput.Children)
	}
}

// TestNoRecorderNoTraces: without a flight recorder (-trace-buffer 0)
// nothing is traced — /analyze and /sweep name no trace, even when a
// client still asks for one with the retired trace query parameter, and
// /debug/traces is not served.
func TestNoRecorderNoTraces(t *testing.T) {
	srv := newTestServer(t)
	if _, hdr := postAnalyze(t, srv, "/analyze?trace=true"); hdr.Get(traceIDHeader) != "" {
		t.Fatalf("/analyze without a recorder set %s = %q", traceIDHeader, hdr.Get(traceIDHeader))
	}
	body, err := json.Marshal(sweep.VideoPipelineSpec(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/sweep", bytes.NewReader(body)))
	if rec.Code != http.StatusOK || rec.Header().Get(traceIDHeader) != "" {
		t.Fatalf("/sweep without a recorder: status %d, %s = %q", rec.Code, traceIDHeader, rec.Header().Get(traceIDHeader))
	}
	for _, path := range []string{"/debug/traces", "/debug/traces/0123456789abcdef0123456789abcdef"} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusNotFound {
			t.Fatalf("GET %s without a recorder = %d, want 404", path, rec.Code)
		}
	}
}

// TestReadinessSplit checks the probe split: plain /healthz answers 200
// from construction (cluster peers probe it to re-admit a live replica),
// while /healthz?ready=1 holds 503 until markReady.
func TestReadinessSplit(t *testing.T) {
	srv := newTestServer(t)
	get := func(path string) int {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec.Code
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Fatalf("liveness before ready = %d, want 200", got)
	}
	if got := get("/healthz?ready=1"); got != http.StatusServiceUnavailable {
		t.Fatalf("readiness before ready = %d, want 503", got)
	}
	srv.markReady()
	if got := get("/healthz?ready=1"); got != http.StatusOK {
		t.Fatalf("readiness after ready = %d, want 200", got)
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Fatalf("liveness after ready = %d, want 200", got)
	}
}

// TestStatsBuildInfo checks /stats carries the version block satellite.
func TestStatsBuildInfo(t *testing.T) {
	srv := newTestServer(t)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/stats status = %d", rec.Code)
	}
	var resp struct {
		Build buildInfo `json:"build"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Build.GoVersion == "" || resp.Build.Version == "" {
		t.Fatalf("stats build block incomplete: %+v", resp.Build)
	}
}

// TestScrapeDuringSweep is the torn-read regression: /stats and /metrics
// are scraped continuously while a sweep saturates the engine. Run under
// -race this flushes unsynchronized counter access; the assertions check
// that snapshot counters only ever move forward (the Delta/clamp contract).
func TestScrapeDuringSweep(t *testing.T) {
	reg := telemetry.NewRegistry()
	e := engine.New(engine.Config{Workers: 4, Metrics: reg})
	t.Cleanup(e.Close)
	instrument(reg, e, readBuildInfo())
	tmpl := testTemplate()
	tmpl.Method = engine.MethodKIter
	srv := newServer(e, tmpl, nil, observability{reg: reg})

	body, err := json.Marshal(sweep.VideoPipelineSpec(6, 6)) // 36 scenarios
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/sweep", bytes.NewReader(body)))
	}()

	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var prev engine.Stats
			for {
				select {
				case <-done:
					return
				default:
				}
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
				var s engine.Stats
				if err := json.Unmarshal(rec.Body.Bytes(), &s); err != nil {
					t.Errorf("decoding /stats mid-sweep: %v", err)
					return
				}
				if s.Submitted < prev.Submitted || s.Evaluations < prev.Evaluations ||
					s.CacheHits < prev.CacheHits || s.CacheMisses < prev.CacheMisses {
					t.Errorf("counters moved backwards: %+v then %+v", prev, s)
					return
				}
				// Delta against the previous snapshot must never wrap.
				d := s.Delta(prev)
				if d.Submitted > s.Submitted || d.Evaluations > s.Evaluations {
					t.Errorf("delta exceeds cumulative: %+v", d)
					return
				}
				prev = s

				rec = httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
				if rec.Code != http.StatusOK {
					t.Errorf("/metrics mid-sweep status = %d", rec.Code)
					return
				}
			}
		}()
	}
	<-done
	wg.Wait()

	// Post-sweep, the scrape reflects the completed work.
	body2 := scrape(t, srv)
	if !strings.Contains(body2, "kiter_solver_kiter_rounds_count") {
		t.Errorf("post-sweep scrape missing solver rounds histogram")
	}
	checkHistogramMonotone(t, body2, "kiter_engine_evaluation_seconds")
}
