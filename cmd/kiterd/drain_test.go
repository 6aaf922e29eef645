package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"kiter/internal/engine"
	"kiter/internal/resilience"
	"kiter/internal/sweep"
)

// TestDrainOnSIGTERM runs a real kiterd subprocess and exercises the full
// drain contract: SIGTERM mid-sweep flips readiness to 503 while the
// in-flight sweep streams to completion, the final -stats-out snapshot is
// written, and the process exits 0. The -chaos latency clause keeps the
// sweep slow enough that the signal genuinely lands mid-flight.
func TestDrainOnSIGTERM(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess e2e under -short")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "kiterd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building kiterd: %v\n%s", err, out)
	}

	statsPath := filepath.Join(dir, "stats.json")
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-workers", "2",
		"-method", "kiter",
		"-chaos", "solver.entry:latency:150ms",
		"-drain-timeout", "20s",
		"-stats-out", statsPath,
	)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The listen address is printed once the bind succeeded.
	addrRe := regexp.MustCompile(`listening on (\S+)`)
	var addr string
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if m := addrRe.FindStringSubmatch(sc.Text()); m != nil {
			addr = m[1]
			break
		}
	}
	if addr == "" {
		t.Fatalf("kiterd never reported its listen address: %v", sc.Err())
	}

	// Start a streaming sweep: 3×3 scenarios, each padded by the injected
	// 150ms solver latency, so the family is still running when we signal.
	body, err := json.Marshal(sweep.VideoPipelineSpec(3, 3))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post("http://"+addr+"/sweep", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("POST /sweep: %v", err)
	}
	defer resp.Body.Close()
	lines := bufio.NewScanner(resp.Body)
	lines.Buffer(make([]byte, 1<<20), 1<<20)
	if !lines.Scan() {
		t.Fatalf("sweep stream produced nothing: %v", lines.Err())
	}

	// First scenario line is in: the sweep is mid-flight. Signal.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	// Readiness must flip to 503 during the drain grace window while
	// liveness stays 200.
	readyDeadline := time.Now().Add(900 * time.Millisecond)
	sawDraining := false
	for time.Now().Before(readyDeadline) {
		r, err := http.Get("http://" + addr + "/healthz?ready=1")
		if err != nil {
			break // listener already closed; the 503 window was missed
		}
		code := r.StatusCode
		r.Body.Close()
		if code == http.StatusServiceUnavailable {
			sawDraining = true
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !sawDraining {
		t.Fatal("readiness never went 503 while draining")
	}
	if r, err := http.Get("http://" + addr + "/healthz"); err == nil {
		if r.StatusCode != http.StatusOK {
			t.Fatalf("liveness = %d while draining, want 200", r.StatusCode)
		}
		r.Body.Close()
	}
	// New work is refused with a retry hint.
	if r, err := http.Post("http://"+addr+"/analyze", "application/json", strings.NewReader("{}")); err == nil {
		if r.StatusCode != http.StatusServiceUnavailable || r.Header.Get("Retry-After") == "" {
			t.Fatalf("draining /analyze = %d (Retry-After %q), want 503 with hint",
				r.StatusCode, r.Header.Get("Retry-After"))
		}
		r.Body.Close()
	}

	// The in-flight sweep still runs to completion: the stream must end
	// with a full envelope, not a cut connection.
	var env *sweep.Envelope
	for lines.Scan() {
		var el sweepEnvelopeLine
		if err := json.Unmarshal(lines.Bytes(), &el); err == nil && el.Envelope != nil {
			env = el.Envelope
		}
	}
	if err := lines.Err(); err != nil {
		t.Fatalf("sweep stream cut during drain: %v", err)
	}
	if env == nil || env.Completed != env.Scenarios || env.Failed != 0 {
		t.Fatalf("drained sweep envelope = %+v, want all scenarios completed", env)
	}

	// Exit 0, with the final stats snapshot written by run()'s defers.
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("kiterd exited non-zero after drain: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("kiterd never exited after drain")
	}
	data, err := os.ReadFile(statsPath)
	if err != nil {
		t.Fatalf("final -stats-out missing: %v", err)
	}
	var st engine.Stats
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatalf("final stats snapshot not valid JSON: %v", err)
	}
	if st.Submitted == 0 || st.Evaluations == 0 {
		t.Fatalf("final stats snapshot empty: %+v", st)
	}
}

// record drives one request through the server mux and returns the raw
// recorder, without postAnalyze's 200-only assertion — these tests are
// about the refusal paths.
func record(t *testing.T, srv *server, method, path string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(method, path, rd))
	return rec
}

// TestAdmissionShedsOverBudget drives the 429 path with a stubbed
// estimator: a predicted wait far past the request budget is refused
// before submission, with the estimate in Retry-After and the shed
// counted on /stats.
func TestAdmissionShedsOverBudget(t *testing.T) {
	srv := newTestServer(t)
	srv.admission = resilience.NewAdmission(resilience.Estimator{
		QuantileWait: func(q float64) float64 { return 10 }, // 10s p90 wait
		Pending:      func() int { return 100 },
		Workers:      1,
	}, nil)
	rec := record(t, srv, http.MethodPost, "/analyze", graphBody(t))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429; body %s", rec.Code, rec.Body)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "1000" { // 10s × 100 backlog
		t.Fatalf("Retry-After = %q, want 1000", ra)
	}
	st := srv.admission.Stats()
	if st.Shed != 1 || st.EstimatedWaitMS == 0 {
		t.Fatalf("admission stats = %+v, want one shed and a live estimate", st)
	}
	// Under budget: admitted and served.
	srv.admission = resilience.NewAdmission(resilience.Estimator{
		QuantileWait: func(q float64) float64 { return 0.001 },
		Pending:      func() int { return 0 },
		Workers:      4,
	}, nil)
	if rec := record(t, srv, http.MethodPost, "/analyze", graphBody(t)); rec.Code != http.StatusOK {
		t.Fatalf("underloaded status = %d, want 200; body %s", rec.Code, rec.Body)
	}
}

// TestDrainRejectsNewWork pins the in-process drain contract for every
// work-accepting endpoint and both probes.
func TestDrainRejectsNewWork(t *testing.T) {
	srv := newTestServer(t)
	srv.markReady()
	srv.startDrain()

	rec := record(t, srv, http.MethodPost, "/analyze", graphBody(t))
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("draining /analyze = %d (Retry-After %q)", rec.Code, rec.Header().Get("Retry-After"))
	}
	rec = record(t, srv, http.MethodPost, "/sweep", []byte("{}"))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining /sweep = %d, want 503", rec.Code)
	}
	rec = record(t, srv, http.MethodGet, "/healthz?ready=1", nil)
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "draining") {
		t.Fatalf("draining readiness = %d %s", rec.Code, rec.Body)
	}
	rec = record(t, srv, http.MethodGet, "/healthz", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("draining liveness = %d, want 200", rec.Code)
	}
	rec = record(t, srv, http.MethodGet, "/stats", nil)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"draining": true`) {
		t.Fatalf("draining /stats = %d %s", rec.Code, rec.Body)
	}
}
