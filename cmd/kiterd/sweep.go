package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"

	"kiter/internal/engine"
	"kiter/internal/sweep"
	"kiter/internal/telemetry"
)

// sweepEnvelopeLine closes a sweep stream with the aggregate; TraceID names
// the sweep's flight-recorder trace (with its sampled per-scenario spans)
// when the process records traces.
type sweepEnvelopeLine struct {
	Envelope *sweep.Envelope `json:"envelope"`
	TraceID  string          `json:"traceId,omitempty"`
}

// sweepTraceSamples caps the per-scenario spans hung off one sweep's trace:
// scenarios are sampled at a stride that yields at most this many, so a
// 10k-scenario sweep doesn't record a 10k-child span tree.
const sweepTraceSamples = 16

// sweepTrace carries one traced sweep's state: the root span plus the
// sampled per-scenario child spans, opened from scenario goroutines and
// closed from the serialized emit path.
type sweepTrace struct {
	span   *telemetry.Span
	reqID  string
	stride int
	mu     sync.Mutex
	open   map[int]*telemetry.Span
}

// newSweepTrace opens a sweep root span when the server records traces.
func (s *server) newSweepTrace(w http.ResponseWriter, total int) *sweepTrace {
	if s.obs.recorder == nil {
		return nil
	}
	stride := (total + sweepTraceSamples - 1) / sweepTraceSamples
	if stride < 1 {
		stride = 1
	}
	reqID := s.middlewareRequestID(w)
	span := telemetry.NewTrace("sweep")
	span.SetString("requestId", reqID)
	span.SetInt("scenarios", int64(total))
	span.SetInt("sampleStride", int64(stride))
	w.Header().Set(traceIDHeader, span.Context().TraceID)
	return &sweepTrace{span: span, reqID: reqID, stride: stride, open: map[int]*telemetry.Span{}}
}

// memberContext is the Runner.MemberContext hook: sampled scenarios get a
// child span of the sweep's root carried in their submission context, so
// the engine's submit/solve instrumentation lands under it. The rest carry
// no span at all and record nothing, so the root holds only the sampled
// scenarios.
func (t *sweepTrace) memberContext(ctx context.Context, i int) context.Context {
	if t == nil || i%t.stride != 0 {
		return ctx
	}
	mctx, sp := telemetry.StartSpan(telemetry.ContextWithSpan(ctx, t.span), "sweep.scenario")
	if sp == nil {
		return ctx
	}
	sp.SetInt("scenario", int64(i))
	t.mu.Lock()
	t.open[i] = sp
	t.mu.Unlock()
	return mctx
}

// pointDone closes scenario i's sampled span, if one was opened.
func (t *sweepTrace) pointDone(p sweep.Point) {
	if t == nil {
		return
	}
	t.mu.Lock()
	sp := t.open[p.Scenario]
	delete(t.open, p.Scenario)
	t.mu.Unlock()
	if sp == nil {
		return
	}
	if p.Error != "" {
		sp.SetString("error", p.Error)
	}
	sp.End()
}

// finish files the sweep's root in the flight recorder.
func (t *sweepTrace) finish(s *server, status string, code int) {
	if t == nil {
		return
	}
	t.span.SetString("status", status)
	s.obs.recorder.Finish(t.span, "/sweep", s.obs.process, t.reqID, code)
}

// handleSweep serves POST /sweep: a parametric sweep spec in, one NDJSON
// line per scenario out (in completion order, flushed as produced), then a
// single {"envelope": …} line. Disconnecting mid-stream cancels every
// scenario still in flight.
func (s *server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	// Same admission/drain ladder as /analyze (429 shed, 503 draining);
	// a sweep admitted before the drain signal streams to completion.
	if !s.admit(w) {
		return
	}
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	spec, err := sweep.ParseSpec(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.tmpl.applySpec(spec)
	x, err := sweep.Compile(spec, s.tmpl.Capacities)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}

	// The sweep's root span (and its sampled per-scenario children) must be
	// opened before the stream commits: the trace ID header has to precede
	// the status line.
	trace := s.newSweepTrace(w, x.Total())

	// From here on the response is a stream: the status line is committed
	// before the first scenario resolves, so runtime failures surface as
	// an envelope-less error line rather than a status change.
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	emit := func(p sweep.Point) error {
		trace.pointDone(p)
		if err := enc.Encode(p); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	}

	// The configured analysis timeout applies per scenario, not to the
	// sweep as a whole: a long family of fast solves streams to completion
	// while one pathological scenario still cannot pin a worker forever.
	runner := sweep.Runner{Engine: s.e, PointTimeout: s.tmpl.Timeout, MemberContext: trace.memberContext}
	env, err := runner.Run(r.Context(), x, emit)
	if err != nil {
		trace.finish(s, "error", http.StatusInternalServerError)
		// The client is usually gone (emit error / context cancel); write
		// the error line anyway for proxies that buffered the stream.
		_ = enc.Encode(map[string]string{"error": err.Error()})
		return
	}
	trace.finish(s, "ok", http.StatusOK)
	line := sweepEnvelopeLine{Envelope: env}
	if trace != nil {
		line.TraceID = trace.span.Context().TraceID
	}
	_ = enc.Encode(line)
	if flusher != nil {
		flusher.Flush()
	}
}

// applySpec fills a spec's unset analysis knobs from the per-process
// defaults, mirroring what /analyze does for its envelope.
func (tmpl requestTemplate) applySpec(spec *sweep.Spec) {
	if spec.Method == "" {
		spec.Method = string(tmpl.Method)
	}
	if len(spec.Analyses) == 0 {
		for _, a := range tmpl.Analyses {
			spec.Analyses = append(spec.Analyses, string(a))
		}
	}
}

// runSweepFile is the batch front-end behind kiterd -sweep: it loads a spec
// file, streams the family through the engine, writes one NDJSON line per
// scenario plus the closing envelope line to out, and fails (non-zero exit
// through main) when any scenario failed to materialize or submit.
func runSweepFile(e *engine.Engine, path string, tmpl requestTemplate, out io.Writer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	spec, err := sweep.ParseSpec(data)
	if err != nil {
		return err
	}
	tmpl.applySpec(spec)
	x, err := sweep.Compile(spec, tmpl.Capacities)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(out)
	// The -timeout budget bounds each scenario, mirroring batch mode's
	// per-graph deadline; the sweep as a whole runs to completion.
	runner := sweep.Runner{Engine: e, PointTimeout: tmpl.Timeout}
	env, err := runner.Run(context.Background(), x, func(p sweep.Point) error {
		return enc.Encode(p)
	})
	if err != nil {
		return err
	}
	if err := enc.Encode(sweepEnvelopeLine{Envelope: env}); err != nil {
		return err
	}
	if env.Failed > 0 {
		return fmt.Errorf("%d of %d scenarios failed", env.Failed, env.Scenarios)
	}
	return nil
}
