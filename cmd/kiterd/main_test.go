package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"kiter/internal/engine"
	"kiter/internal/gen"
	"kiter/internal/sdf3x"
)

func testTemplate() requestTemplate {
	return requestTemplate{
		Method:   engine.MethodAuto,
		Analyses: []engine.AnalysisKind{engine.AnalysisThroughput},
		Timeout:  time.Minute,
	}
}

func newTestServer(t *testing.T) *server {
	t.Helper()
	e := engine.New(engine.Config{Workers: 4})
	t.Cleanup(e.Close)
	return newServer(e, testTemplate(), nil, observability{})
}

func graphBody(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := sdf3x.WriteJSON(&buf, gen.Figure2()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestAnalyzeBareGraph(t *testing.T) {
	srv := newTestServer(t)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/analyze", bytes.NewReader(graphBody(t))))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	var resp analyzeResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Result == nil || resp.Result.Throughput == nil {
		t.Fatalf("missing throughput: %s", rec.Body)
	}
	if !resp.Result.Throughput.Optimal {
		t.Fatal("result not optimal")
	}
}

// TestAnalyzeMinimalReplyShape pins the /analyze reply to the minimal
// shape: a compact single-line body whose only key is "result" — no stats
// snapshot (GET /stats serves it), no indentation. The stats snapshot
// grows with cluster/tier counters, so shipping it per request was pure
// hot-path bloat.
func TestAnalyzeMinimalReplyShape(t *testing.T) {
	srv := newTestServer(t)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/analyze", bytes.NewReader(graphBody(t))))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	body := rec.Body.String()
	if strings.Contains(body, "\n  ") {
		t.Fatalf("/analyze response is pretty-printed:\n%s", body)
	}
	if n := strings.Count(strings.TrimSpace(body), "\n"); n != 0 {
		t.Fatalf("/analyze response spans %d extra lines", n)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &keys); err != nil {
		t.Fatal(err)
	}
	if _, ok := keys["stats"]; ok {
		t.Fatalf("default reply carries stats: %s", body)
	}
	if _, ok := keys["result"]; !ok || len(keys) != 1 {
		t.Fatalf("default reply keys = %v, want [result]", keys)
	}

	// Human-facing endpoints keep the indented encoder.
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	if !strings.Contains(rec.Body.String(), "\n  ") {
		t.Fatal("/stats response is not pretty-printed")
	}
}

func TestAnalyzeEnvelopeAndCacheStats(t *testing.T) {
	srv := newTestServer(t)
	env := map[string]any{
		"graph":    json.RawMessage(graphBody(t)),
		"method":   "kiter",
		"analyses": []string{"throughput", "symbolic"},
	}
	body, _ := json.Marshal(env)
	var resp analyzeResponse
	var stats engine.Stats
	for i := 0; i < 2; i++ {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/analyze", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		rec = httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
		if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
			t.Fatal(err)
		}
	}
	if resp.Result.Throughput == nil || resp.Result.Symbolic == nil {
		t.Fatalf("missing sections: %s", mustJSON(resp.Result))
	}
	if resp.Result.Throughput.Method != engine.MethodKIter {
		t.Fatalf("method = %s, want kiter", resp.Result.Throughput.Method)
	}
	if !resp.Result.CacheHit {
		t.Fatal("second identical request was not a cache hit")
	}
	if stats.CacheHits != 1 || stats.Evaluations != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 evaluation", stats)
	}
}

func TestAnalyzeRejectsBadInput(t *testing.T) {
	srv := newTestServer(t)
	cases := []struct {
		name string
		body string
	}{
		{"not json", "nope"},
		{"no tasks", `{"name":"empty"}`},
		{"bad method", `{"graph":{"tasks":[{"name":"a","durations":[1]}]},"method":"bogus"}`},
	}
	for _, c := range cases {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/analyze", strings.NewReader(c.body)))
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: status = %d, want 400 (body %s)", c.name, rec.Code, rec.Body)
		}
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/analyze", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /analyze: status = %d, want 405", rec.Code)
	}
}

func TestHealthzAndStats(t *testing.T) {
	srv := newTestServer(t)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"ok"`) {
		t.Fatalf("healthz: %d %s", rec.Code, rec.Body)
	}
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("stats: %d", rec.Code)
	}
	var s engine.Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &s); err != nil {
		t.Fatalf("stats not decodable: %v", err)
	}
}

// readBatch splits runBatch's NDJSON output into its per-graph lines and
// the closing summary, failing on anything unparseable.
func readBatch(t *testing.T, out string) ([]ndjsonLine, ndjsonSummary) {
	t.Helper()
	raw := strings.Split(strings.TrimSpace(out), "\n")
	lines := make([]ndjsonLine, len(raw)-1)
	for i, line := range raw[:len(raw)-1] {
		if err := json.Unmarshal([]byte(line), &lines[i]); err != nil {
			t.Fatalf("unparseable NDJSON line %q: %v", line, err)
		}
		if lines[i].Path == "" {
			t.Fatalf("line without path: %q", line)
		}
	}
	var sum ndjsonSummary
	if err := json.Unmarshal([]byte(raw[len(raw)-1]), &sum); err != nil || sum.Summary.Graphs == 0 {
		t.Fatalf("unparseable summary %q: %v", raw[len(raw)-1], err)
	}
	return lines, sum
}

// TestBatchEndToEnd drives the batch front-end over a directory of ≥ 20
// generated suite graphs, twice — the second pass must be all cache hits.
func TestBatchEndToEnd(t *testing.T) {
	dir := t.TempDir()
	suite, err := gen.SuiteByName("mimicdsp", 24, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(suite.Graphs) < 20 {
		t.Fatalf("suite produced only %d graphs", len(suite.Graphs))
	}
	paths, err := gen.WriteSuite(dir, suite)
	if err != nil {
		t.Fatal(err)
	}

	e := engine.New(engine.Config{Workers: 4})
	t.Cleanup(e.Close)
	tmpl := testTemplate()
	tmpl.Method = engine.MethodKIter

	var out bytes.Buffer
	if err := runBatch(e, paths, tmpl, &out); err != nil {
		t.Fatalf("runBatch: %v\n%s", err, out.String())
	}
	lines, sum := readBatch(t, out.String())
	if len(lines) != len(paths) {
		t.Fatalf("batch printed %d results for %d graphs:\n%s", len(lines), len(paths), out.String())
	}
	for _, l := range lines {
		if l.Result == nil || l.Result.Throughput == nil || !l.Result.Throughput.Optimal {
			t.Fatalf("%s: no optimal throughput result: %+v", l.Path, l.Result)
		}
	}
	if int(sum.Summary.Stats.Evaluations) != len(paths) {
		t.Fatalf("evaluations = %d, want %d", sum.Summary.Stats.Evaluations, len(paths))
	}

	out.Reset()
	if err := runBatch(e, paths, tmpl, &out); err != nil {
		t.Fatalf("second runBatch: %v", err)
	}
	lines, sum = readBatch(t, out.String())
	hits := 0
	for _, l := range lines {
		if l.Result != nil && l.Result.CacheHit {
			hits++
		}
	}
	if hits != len(paths) {
		t.Fatalf("second pass had %d cache hits for %d graphs:\n%s", hits, len(paths), out.String())
	}
	if sum.Summary.Stats.Evaluations != 0 {
		t.Fatalf("second pass summary counts %d evaluations, want 0", sum.Summary.Stats.Evaluations)
	}
}

// TestBatchNDJSON checks the streaming output contract: one parseable
// JSON object per graph carrying path and result, a single closing
// summary line that counts failures, and failures reported inline (and
// in the returned error) rather than aborting.
func TestBatchNDJSON(t *testing.T) {
	dir := t.TempDir()
	paths, err := gen.WriteSuite(dir, gen.ActualDSP())
	if err != nil {
		t.Fatal(err)
	}
	paths = append(paths, filepath.Join(dir, "missing.json"))

	e := engine.New(engine.Config{Workers: 4})
	t.Cleanup(e.Close)
	tmpl := testTemplate()
	tmpl.Method = engine.MethodKIter

	var out bytes.Buffer
	err = runBatch(e, paths, tmpl, &out)
	if want := fmt.Sprintf("1 of %d", len(paths)); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("missing graph not counted: err=%v, want %q", err, want)
	}
	lines, sum := readBatch(t, out.String())
	if len(lines) != len(paths) {
		t.Fatalf("got %d NDJSON lines for %d graphs (+1 summary):\n%s", len(lines), len(paths), out.String())
	}
	seen := map[string]bool{}
	failures := 0
	for _, l := range lines {
		seen[l.Path] = true
		if l.Error != "" {
			failures++
			continue
		}
		if l.Result == nil || l.Result.Throughput == nil || !l.Result.Throughput.Optimal {
			t.Fatalf("%s: line without optimal throughput result", l.Path)
		}
	}
	if len(seen) != len(paths) {
		t.Fatalf("streamed %d distinct paths, want %d", len(seen), len(paths))
	}
	if failures != 1 {
		t.Fatalf("streamed %d failures, want 1", failures)
	}
	if sum.Summary.Graphs != len(paths) || sum.Summary.Failed != 1 {
		t.Fatalf("summary = %+v, want %d graphs / 1 failed", sum.Summary, len(paths))
	}
	if sum.Summary.Stats.Evaluations == 0 {
		t.Fatal("summary carries no engine stats")
	}
}

func TestBatchManifestAndErrors(t *testing.T) {
	dir := t.TempDir()
	paths, err := gen.WriteSuite(dir, gen.ActualDSP())
	if err != nil {
		t.Fatal(err)
	}
	manifest := filepath.Join(dir, "manifest.txt")
	var sb strings.Builder
	sb.WriteString("# batch manifest\n\n")
	for _, p := range paths {
		sb.WriteString(filepath.Base(p) + "\n")
	}
	sb.WriteString("missing.json\n")
	if err := os.WriteFile(manifest, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := collectBatchPaths(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(paths)+1 {
		t.Fatalf("manifest resolved %d paths, want %d", len(got), len(paths)+1)
	}

	e := engine.New(engine.Config{Workers: 2})
	t.Cleanup(e.Close)
	var out bytes.Buffer
	err = runBatch(e, got, testTemplate(), &out)
	if err == nil || !strings.Contains(err.Error(), "1 of") {
		t.Fatalf("missing graph not reported: err=%v\n%s", err, out.String())
	}
	lines, _ := readBatch(t, out.String())
	inline := false
	for _, l := range lines {
		if filepath.Base(l.Path) == "missing.json" && l.Error != "" && l.Result == nil {
			inline = true
		}
	}
	if !inline {
		t.Fatalf("missing graph has no inline error line:\n%s", out.String())
	}

	if _, err := collectBatchPaths(filepath.Join(dir, "does-not-exist")); err == nil {
		t.Fatal("missing batch argument accepted")
	}
}

// failAfterWriter accepts its first n writes and fails every one after.
type failAfterWriter struct{ n int }

var errBrokenPipe = errors.New("broken pipe")

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.n == 0 {
		return 0, errBrokenPipe
	}
	w.n--
	return len(p), nil
}

// TestBatchWriteErrorCancels pins the broken-consumer rule batch mode
// shares with sweeps: once a line cannot be written, the remaining graphs
// are cancelled rather than analyzed for nobody, and the write error is
// what runBatch returns.
func TestBatchWriteErrorCancels(t *testing.T) {
	dir := t.TempDir()
	var paths []string
	for i := range 40 {
		path := filepath.Join(dir, fmt.Sprintf("g%02d.json", i))
		if err := sdf3x.WriteFile(path, gen.KIterChain(2+i)); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	e := engine.New(engine.Config{Workers: 1})
	t.Cleanup(e.Close)
	err := runBatch(e, paths, testTemplate(), &failAfterWriter{n: 1})
	if !errors.Is(err, errBrokenPipe) {
		t.Fatalf("runBatch = %v, want the write error", err)
	}
	if s := e.Stats(); s.Submitted >= uint64(len(paths)) {
		t.Fatalf("submitted %d of %d graphs after the output broke", s.Submitted, len(paths))
	}
}

func TestCollectBatchPathsDir(t *testing.T) {
	dir := t.TempDir()
	if _, err := gen.WriteSuite(dir, gen.ActualDSP()); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	paths, err := collectBatchPaths(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != len(gen.ActualDSP().Graphs) {
		t.Fatalf("dir walk found %d graphs, want %d", len(paths), len(gen.ActualDSP().Graphs))
	}
	for _, p := range paths {
		if strings.HasSuffix(p, ".txt") {
			t.Fatalf("non-graph file collected: %s", p)
		}
	}
}

func mustJSON(v any) string {
	b, _ := json.MarshalIndent(v, "", "  ")
	return string(b)
}

// discardWriter is a ResponseWriter that keeps only the status code and
// the byte count, so an allocation count sees the handler's own work.
type discardWriter struct {
	h    http.Header
	code int
	n    int
}

func (w *discardWriter) Header() http.Header  { return w.h }
func (w *discardWriter) WriteHeader(code int) { w.code = code }
func (w *discardWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// rewindBody is a request body that a test rewinds between requests.
type rewindBody struct{ *bytes.Reader }

func (rewindBody) Close() error { return nil }

// TestAnalyzeWarmAllocations pins the allocations of a warm /analyze: the
// same bare BlackScholes body (41 tasks, 41 buffers, 4.3 KB compact) after
// the engine has cached its result, through ServeHTTP with the zero
// observability. The body is read into the pooled decoder's buffer, so of
// the 109 objects 88 are the decoded graph; the rest are the request ID
// and headers, the deadline, the engine's cache read and the reply. The
// race detector drops pooled scratch at random, which adds up to about 17.
func TestAnalyzeWarmAllocations(t *testing.T) {
	g, err := gen.Industrial(gen.IndustrialSpecs()[0])
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sdf3x.WriteCompactJSON(&buf, g); err != nil {
		t.Fatal(err)
	}
	body := buf.Bytes()
	srv := newTestServer(t)
	rb := rewindBody{bytes.NewReader(body)}
	req := httptest.NewRequest(http.MethodPost, "/analyze", rb)
	w := &discardWriter{h: http.Header{}}
	serve := func() {
		rb.Reset(body)
		w.code, w.n = 0, 0
		srv.ServeHTTP(w, req)
		if w.code != http.StatusOK || w.n == 0 {
			t.Fatalf("status %d, %d bytes", w.code, w.n)
		}
	}
	serve() // prime the engine's cache
	if st := srv.e.Stats(); st.Evaluations != 1 {
		t.Fatalf("priming evaluated %d jobs, want 1", st.Evaluations)
	}
	allocs := testing.AllocsPerRun(100, serve)
	if st := srv.e.Stats(); st.Evaluations != 1 {
		t.Fatalf("warm requests evaluated %d jobs, want none", st.Evaluations-1)
	}
	if allocs > 130 {
		t.Errorf("warm /analyze allocates %.0f objects on a %d-task, %d-buffer graph, want ≤ 130",
			allocs, g.NumTasks(), g.NumBuffers())
	}
}
