package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"kiter/internal/cluster"
	"kiter/internal/engine"
	"kiter/internal/resilience"
	"kiter/internal/sdf3x"
	"kiter/internal/telemetry"
)

// maxBodyBytes bounds /analyze and /sweep request bodies. A forwarding
// peer accepts this much graph plus its envelope.
const maxBodyBytes = cluster.MaxBody

// observability bundles the telemetry seams handed to the server: the
// metrics registry behind GET /metrics, the flight recorder behind
// GET /debug/traces (the only place a trace is stored; the /metrics
// slowest-trace exemplars are derived from it), and the build block
// reported by /stats. The zero value is a fully quiet server (no /metrics
// endpoint, no per-request histograms, no span trees, no recorder) — what
// most tests want.
type observability struct {
	reg      *telemetry.Registry
	recorder *telemetry.Recorder
	// process names this replica in recorded traces — the cluster self
	// address in a fleet, empty standalone.
	process string
	build   buildInfo
}

// server is the HTTP front-end over the analysis engine.
type server struct {
	e    *engine.Engine
	tmpl requestTemplate
	mux  *http.ServeMux
	// cl is the optional cluster layer; the debug trace endpoints use it
	// to fan a ?fleet=1 stitch out to peers.
	cl *cluster.Cluster
	// maxBody bounds request bodies; overridable in tests.
	maxBody int64
	obs     observability
	// httpHist times every request by normalized endpoint and status code;
	// nil (no registry) skips the middleware entirely.
	httpHist *telemetry.HistogramVec
	// ready gates /healthz?ready=1: false until the process finished
	// constructing the engine, cache tiers and cluster and is about to
	// accept traffic. Plain /healthz stays a pure liveness probe — cluster
	// peers probe it to decide ring membership, and a replica that is alive
	// but still warming up must answer those.
	ready atomic.Bool
	// draining flips on SIGTERM: readiness goes 503 and work-accepting
	// endpoints refuse new submissions while in-flight requests (including
	// streaming sweeps) run to completion under the drain budget.
	draining atomic.Bool
	// admission, when non-nil, sheds requests whose estimated queue wait
	// already exceeds their deadline budget (429 before they occupy a
	// pending slot). Nil admits everything — the engine's hard MaxPending
	// cliff is then the only shedding.
	admission *resilience.Admission
	// reqSeq numbers the request IDs the server generates.
	reqSeq atomic.Uint64
}

// newServer builds the HTTP front-end. cl is the optional cluster layer:
// when set, the internal /cluster/evaluate endpoint is mounted so peer
// replicas can forward jobs here, and /stats grows the per-peer cluster
// section (via engine.Stats). obs wires the telemetry seams; the zero
// observability disables all of them.
func newServer(e *engine.Engine, tmpl requestTemplate, cl *cluster.Cluster, obs observability) *server {
	s := &server{e: e, tmpl: tmpl, mux: http.NewServeMux(), cl: cl, maxBody: maxBodyBytes, obs: obs}
	if obs.build == (buildInfo{}) {
		s.obs.build = readBuildInfo()
	}
	s.mux.HandleFunc("/analyze", s.handleAnalyze)
	s.mux.HandleFunc("/sweep", s.handleSweep)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/stats", s.handleStats)
	if obs.reg != nil {
		s.httpHist = obs.reg.HistogramVec("kiter_http_request_seconds",
			"HTTP request latency by endpoint and status code, in seconds.",
			telemetry.LatencyBuckets, "endpoint", "code")
		obs.recorder.RegisterExemplars(obs.reg)
		s.mux.HandleFunc("/metrics", s.handleMetrics)
	}
	if obs.recorder != nil {
		s.mux.HandleFunc("/debug/traces", s.handleDebugTraces)
		s.mux.HandleFunc("/debug/traces/", s.handleDebugTrace)
	}
	if cl != nil {
		evaluate := s.joinTrace("cluster.evaluate", cl.EvaluateHandler(e, tmpl.Timeout))
		s.mux.HandleFunc("/cluster/evaluate", func(w http.ResponseWriter, r *http.Request) {
			// A draining replica refuses forwarded work too: the sending
			// peer's dispatcher falls back to local evaluation, which is
			// exactly where the work must land once this process exits.
			if s.draining.Load() {
				w.Header().Set("Retry-After", "1")
				httpError(w, http.StatusServiceUnavailable, "draining")
				return
			}
			evaluate(w, r)
		})
		// The fleet tier's warm-start read keeps serving through a drain:
		// a peer warming from this replica's shard costs nothing and beats
		// a recomputation.
		s.mux.HandleFunc("/cluster/cache/get", s.joinTrace("cluster.cache.get", cl.CacheGetHandler()))
	}
	return s
}

// markReady flips the readiness probe to 200. Called once construction is
// complete, immediately before the listener starts accepting.
func (s *server) markReady() { s.ready.Store(true) }

// startDrain rejects new work while in-flight requests finish: readiness
// goes 503 (load balancers stop routing here), /analyze, /sweep and
// /cluster/evaluate refuse new submissions. Liveness stays 200 — the
// process is still up, deliberately finishing its queue.
func (s *server) startDrain() { s.draining.Store(true) }

// admit applies the server's load-control ladder to one work-accepting
// request, writing the refusal itself when the request must not start.
// The contract, from soft to hard:
//
//	429 Too Many Requests — admission control: the estimated queue wait
//	    already exceeds the request's deadline budget, so queueing it
//	    would only burn a pending slot to time out. Retry-After carries
//	    the wait estimate; the request was never submitted.
//	503 Service Unavailable — the hard cliffs: the engine's MaxPending
//	    limit (ErrOverloaded), engine shutdown (ErrClosed), or a draining
//	    process. Retry-After is a floor, not an estimate.
//
// Both are retryable by design; only 429 scales its hint with load.
func (s *server) admit(w http.ResponseWriter) bool {
	if s.draining.Load() {
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, "draining")
		return false
	}
	if est, shed := s.admission.Check(s.tmpl.Timeout); shed {
		w.Header().Set("Retry-After", retryAfter(est))
		httpError(w, http.StatusTooManyRequests,
			"estimated queue wait %s exceeds the %s request budget", est.Round(time.Millisecond), s.tmpl.Timeout)
		return false
	}
	return true
}

// retryAfter renders a wait estimate as a Retry-After value: whole
// seconds, rounded up, at least 1.
func retryAfter(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// endpointLabel normalizes a request path onto the server's fixed endpoint
// set so the request histogram's label cardinality is bounded by the API
// surface, not by whatever paths clients probe.
func endpointLabel(path string) string {
	switch path {
	case "/analyze", "/sweep", "/healthz", "/stats", "/metrics",
		"/cluster/evaluate", "/cluster/cache/get":
		return path
	}
	if strings.HasPrefix(path, "/debug/traces") {
		return "/debug/traces"
	}
	return "other"
}

// traceIDHeader is the response header trace-producing handlers set so
// clients learn which flight-recorder trace to pull from
// GET /debug/traces/{id}.
const traceIDHeader = "X-Kiter-Trace-Id"

// requestIDHeader carries the per-request correlation ID: echoed from the
// client when present (and well-formed), generated otherwise, always
// reflected on the response and included in JSON error bodies.
const requestIDHeader = "X-Request-ID"

// statusWriter captures the request's status for the request histogram
// and the trace record, carries the request's correlation ID to error
// writers downstream, and holds the request's trace root from startTrace
// until fileTrace files it.
type statusWriter struct {
	http.ResponseWriter
	// code is the request's one status: the reply's status line, or the
	// outcome a streaming handler filed after committing it.
	code  int
	reqID string
	root  *telemetry.Span
	// remote marks a root joined from a peer's traceparent rather than
	// minted here.
	remote bool
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// RequestID exposes the correlation ID to the error body writer
// (cluster.WriteError) through an interface assertion.
func (w *statusWriter) RequestID() string { return w.reqID }

// Flush forwards streaming flushes (the /sweep NDJSON path) through the
// status capture.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// requestID echoes a well-formed client X-Request-ID or mints one.
func (s *server) requestID(r *http.Request) string {
	if id := sanitizeRequestID(r.Header.Get(requestIDHeader)); id != "" {
		return id
	}
	return fmt.Sprintf("req-%d", s.reqSeq.Add(1))
}

// sanitizeRequestID accepts up to 64 characters of [A-Za-z0-9._-]; anything
// else (header injection, binary junk) is discarded in favor of a
// generated ID.
func sanitizeRequestID(id string) string {
	if len(id) == 0 || len(id) > 64 {
		return ""
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return ""
		}
	}
	return id
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK, reqID: s.requestID(r)}
	// Reflect the ID on the response and normalize it into the request
	// headers, so handlers (and the cluster handlers' trace records) read
	// one canonical value.
	sw.Header().Set(requestIDHeader, sw.reqID)
	r.Header.Set(requestIDHeader, sw.reqID)
	s.mux.ServeHTTP(sw, r)
	s.fileTrace(sw, r, sw.code)
	if s.httpHist == nil {
		return
	}
	s.httpHist.With(endpointLabel(r.URL.Path), strconv.Itoa(sw.code)).Observe(time.Since(start).Seconds())
}

// startTrace opens the request's root span when the server records traces
// (-trace-buffer > 0) and keeps it on the serving middleware's writer, so
// that ServeHTTP files it, with the reply's status, once the handler
// returns. A local root (/analyze, /sweep) starts a new trace, carries the
// request ID and names the trace to the client in X-Kiter-Trace-Id, so it
// opens before the first write. A remote root (the cluster endpoints)
// joins the trace of the peer that sent the request's traceparent, as a
// child of the peer's span, and opens only when a valid one arrived. The
// returned context carries the root; without one it is r's own.
func (s *server) startTrace(w http.ResponseWriter, r *http.Request, name string, remote bool) (context.Context, *telemetry.Span) {
	sw, ok := w.(*statusWriter)
	if !ok || s.obs.recorder == nil {
		return r.Context(), nil
	}
	if remote {
		sc, ok := telemetry.ParseTraceparent(r.Header.Get(telemetry.Traceparent))
		if !ok {
			return r.Context(), nil
		}
		sw.root = telemetry.NewRemoteTrace(name, sc)
		if peer := cluster.Caller(r); peer != "" {
			sw.root.SetString("caller", peer)
		}
	} else {
		sw.root = telemetry.NewTrace(name)
		sw.root.SetString("requestId", sw.reqID)
		sw.Header().Set(traceIDHeader, sw.root.Context().TraceID)
	}
	sw.remote = remote
	return telemetry.ContextWithSpan(r.Context(), sw.root), sw.root
}

// fileTrace settles the request's status as code, which the request
// histogram then counts it under, files the request's open root, if any,
// in the flight recorder under that status (>= 400 marks it errored), and
// forgets it, so a second call files nothing. ServeHTTP files every root
// when the handler returns, which is before net/http ends the response: a
// client that has read the whole reply always finds the record. Errored
// traces are exactly the ones the recorder's tail-biased retention fights
// to keep.
func (s *server) fileTrace(w http.ResponseWriter, r *http.Request, code int) {
	sw, ok := w.(*statusWriter)
	if !ok {
		return
	}
	sw.code = code
	if sw.root == nil {
		return
	}
	if !sw.remote {
		status := "ok"
		if code >= 400 {
			status = "error"
		}
		sw.root.SetString("status", status)
	}
	s.obs.recorder.Finish(sw.root, endpointLabel(r.URL.Path), s.obs.process, sw.reqID, code)
	sw.root = nil
}

// joinTrace serves a cluster endpoint under a remote root, which the
// cluster handler reads from its request's context.
func (s *server) joinTrace(name string, h http.Handler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if ctx, root := s.startTrace(w, r, name, true); root != nil {
			r = r.WithContext(ctx)
		}
		h.ServeHTTP(w, r)
	}
}

// handleMetrics renders the process registry in Prometheus text
// exposition format: the instruments the engine, cluster, admission
// controller and server registered — the counters GET /stats reads too —
// and the scrape-time collectors.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.obs.reg.WritePrometheus(w)
}

// analyzeResponse is the /analyze reply: the analysis result and nothing
// else. Engine stats live behind GET /stats; the request's span tree is in
// the flight recorder under the X-Kiter-Trace-Id response header.
type analyzeResponse struct {
	Result *engine.Result `json:"result"`
}

// appendJSON appends the reply's JSON line: the bytes
// json.NewEncoder(w).Encode(a) writes, trailing newline included.
func (a analyzeResponse) appendJSON(b []byte) ([]byte, error) {
	start := len(b)
	b, err := a.Result.AppendJSON(append(b, `{"result":`...))
	if err != nil {
		return b[:start], err
	}
	return append(b, '}', '\n'), nil
}

// replyBufs recycles /analyze reply buffers, as encoding/json recycles
// its encode states.
var replyBufs = sync.Pool{New: func() any { return new([]byte) }}

// writeReply writes a 200 /analyze reply. Like json.Encoder before it, it
// writes no body when the result has no JSON form (a non-finite float).
func writeReply(w http.ResponseWriter, res *engine.Result) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	bp := replyBufs.Get().(*[]byte)
	b, err := analyzeResponse{Result: res}.appendJSON((*bp)[:0])
	if err == nil {
		_, _ = w.Write(b) // a failed write means the client is gone
	}
	*bp = b[:0]
	replyBufs.Put(bp)
}

// boolParam reports whether a query parameter was set truthily.
func boolParam(r *http.Request, name string) bool {
	switch r.URL.Query().Get(name) {
	case "1", "true", "yes":
		return true
	}
	return false
}

func (s *server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if !s.admit(w) {
		return
	}
	// A span tree is built exactly when a flight recorder is running
	// (-trace-buffer > 0); the engine's instrumentation hangs its
	// submit/solve/analysis children off this root via the context, and —
	// in a fleet — the span's context rides the forward as a traceparent
	// header so the owning replica's handler span joins the same tree.
	// The root opens before the body is read, so the trace covers
	// decoding and a body that fails to decode still leaves one; it closes
	// when the reply is written.
	ctx, _ := s.startTrace(w, r, "analyze", false)

	// The body is read under the size cap into the pooled decoder's own
	// buffer, and one pass decodes the envelope and the graph from it and
	// validates the graph, whose facts the engine takes as they are.
	// Envelopes are strict so a typo'd knob ("metod", "anlyses") fails
	// loudly instead of silently running the defaults; a bare graph body
	// skips unknown keys.
	body, err := sdf3x.ReadBody(http.MaxBytesReader(w, r.Body, s.maxBody), r.ContentLength)
	if err != nil {
		var readErr *sdf3x.ReadError
		var reqErr *sdf3x.RequestError
		switch {
		case errors.As(err, &readErr):
			readError(w, readErr.Err)
		case errors.As(err, &reqErr):
			httpError(w, http.StatusBadRequest, "decoding request: %v", reqErr.Err)
		default:
			httpError(w, http.StatusBadRequest, "decoding graph: %v", err)
		}
		return
	}
	var knobs sdf3x.Envelope // a bare graph runs with the template's knobs
	if body.Env != nil {
		knobs = *body.Env
	}

	req := &engine.Request{
		Facts:           body.Facts,
		Analyses:        s.tmpl.Analyses,
		Method:          s.tmpl.Method,
		ApplyCapacities: s.tmpl.Capacities,
		NoCache:         knobs.NoCache,
	}
	if s.cl == nil {
		body.Release() // nothing forwards: the buffer goes back at once
	} else {
		// A forward to the graph's owner sends the graph's bytes from the
		// decoder's buffer, which the engine hands back once it no longer
		// needs them. held, not body, escapes, so the path without a
		// cluster allocates nothing for it.
		held := body
		req.GraphJSON, req.ReleaseGraphJSON = held.GraphJSON, held.Release
	}
	if len(knobs.Analyses) > 0 {
		req.Analyses = nil
		for _, a := range knobs.Analyses {
			req.Analyses = append(req.Analyses, engine.AnalysisKind(a))
		}
	}
	if knobs.Method != "" {
		req.Method = engine.Method(knobs.Method)
	}
	if knobs.Capacities != nil {
		req.ApplyCapacities = *knobs.Capacities
	}

	if s.tmpl.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.tmpl.Timeout)
		defer cancel()
	}

	res, err := s.e.Submit(ctx, req)
	if req.ReleaseGraphJSON != nil {
		req.ReleaseGraphJSON() // a no-op when the engine already called it
	}
	if err != nil {
		switch {
		case errors.Is(err, engine.ErrOverloaded):
			// The hard MaxPending cliff: unlike an admission shed the job
			// was attempted, but the retry hint is the same wait estimate.
			w.Header().Set("Retry-After", retryAfter(s.admission.EstimateWait()))
			httpError(w, http.StatusServiceUnavailable, "%v", err)
		case errors.Is(err, engine.ErrClosed):
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusServiceUnavailable, "%v", err)
		case errors.Is(err, context.DeadlineExceeded):
			httpError(w, http.StatusGatewayTimeout, "analysis timed out")
		case errors.Is(err, context.Canceled):
			httpError(w, http.StatusBadRequest, "request cancelled")
		default:
			httpError(w, http.StatusBadRequest, "%v", err)
		}
		return
	}
	writeReply(w, res)
}

// readBody reads a POST body under the server's size cap, writing the
// 400/413 error response itself when the read fails or the cap is hit.
// http.MaxBytesReader (not a hand-rolled LimitReader) does the capping so
// an over-cap client's connection is also marked for close: the server
// stops reading the rest of the body and signals Connection: close instead
// of leaving an undrained stream on a keep-alive connection.
func (s *server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.maxBody))
	if err != nil {
		readError(w, err)
		return nil, false
	}
	return body, true
}

// readError writes the response for a failed read of a capped body, 413
// when the cap was hit and 400 otherwise.
func readError(w http.ResponseWriter, err error) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		httpError(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", mbe.Limit)
		return
	}
	httpError(w, http.StatusBadRequest, "reading body: %v", err)
}

// handleHealthz serves both probes. The plain GET /healthz is liveness —
// "the process is up and serving HTTP" — and is what cluster peers probe,
// so it answers 200 even while the replica is warming up (an alive replica
// must rejoin the ring). GET /healthz?ready=1 is readiness — 503 until the
// engine, cache tiers and cluster are constructed and the listener is
// accepting — the probe a load balancer should gate traffic on.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if v := r.URL.Query().Get("ready"); v != "" && v != "0" {
		if s.draining.Load() {
			// Draining flips readiness first so load balancers stop routing
			// new traffic here while in-flight requests finish.
			writeJSONIndent(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
			return
		}
		if !s.ready.Load() {
			writeJSONIndent(w, http.StatusServiceUnavailable, map[string]any{"status": "starting"})
			return
		}
		writeJSONIndent(w, http.StatusOK, map[string]any{
			"status":  "ready",
			"workers": s.e.WorkerCount(),
		})
		return
	}
	writeJSONIndent(w, http.StatusOK, map[string]any{
		"status":  "ok",
		"workers": s.e.WorkerCount(),
	})
}

// statsResponse is the /stats reply: the engine snapshot plus the binary's
// build block, so a fleet scrape can tell replica versions apart.
type statsResponse struct {
	engine.Stats
	Build     buildInfo                  `json:"build"`
	Admission *resilience.AdmissionStats `json:"admission,omitempty"`
	Draining  bool                       `json:"draining,omitempty"`
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := statsResponse{Stats: s.e.Stats(), Build: s.obs.build, Draining: s.draining.Load()}
	if s.admission != nil {
		st := s.admission.Stats()
		resp.Admission = &st
	}
	writeJSONIndent(w, http.StatusOK, resp)
}

// writeJSONIndent pretty-prints for endpoints read by humans (/stats,
// /healthz), where a curl without jq should still be legible.
func writeJSONIndent(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// httpError writes the JSON error reply (cluster.WriteError) with a
// formatted message.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	cluster.WriteError(w, code, fmt.Sprintf(format, args...))
}
