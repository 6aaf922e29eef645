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
	stride int
	mu     sync.Mutex
	open   map[int]*telemetry.Span
}

// newSweepTrace samples a sweep of total scenarios under root.
func newSweepTrace(root *telemetry.Span, total int) *sweepTrace {
	stride := (total + sweepTraceSamples - 1) / sweepTraceSamples
	if stride < 1 {
		stride = 1
	}
	root.SetInt("scenarios", int64(total))
	root.SetInt("sampleStride", int64(stride))
	return &sweepTrace{span: root, stride: stride, open: map[int]*telemetry.Span{}}
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

// handleSweep serves POST /sweep: a parametric sweep spec in, one NDJSON
// line per scenario out (in completion order, flushed as produced by a
// lineStream), then a single {"envelope": …} line. Disconnecting
// mid-stream cancels every scenario still in flight.
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
	var trace *sweepTrace
	if _, root := s.startTrace(w, r, "sweep", false); root != nil {
		trace = newSweepTrace(root, x.Total())
	}

	// From here on the response is a stream: the status line is committed
	// before the first scenario resolves, so runtime failures surface as
	// an envelope-less error line rather than a status change.
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	stream := newLineStream(w)
	var line []byte // emit is serialized, so one line buffer serves the sweep
	emit := func(p sweep.Point) error {
		trace.pointDone(p)
		var err error
		if line, err = p.AppendJSON(line[:0]); err != nil {
			return err
		}
		return stream.write(line)
	}

	// The configured analysis timeout applies per scenario, not to the
	// sweep as a whole: a long family of fast solves streams to completion
	// while one pathological scenario still cannot pin a worker forever.
	runner := sweep.Runner{Engine: s.e, PointTimeout: s.tmpl.Timeout, MemberContext: trace.memberContext}
	env, err := runner.Run(r.Context(), x, emit)
	// The flusher has exited once close returns: the closing line and the
	// final flush below are the handler's own, as is the writer afterwards.
	stream.close()
	// The trace is filed here rather than when the handler returns: the
	// closing line names it, and a client may pull it as soon as it reads
	// that line. A failed stream files, and is counted, as a 500 under its
	// 200 status line.
	enc := json.NewEncoder(w)
	if err != nil {
		s.fileTrace(w, r, http.StatusInternalServerError)
		// The client is usually gone (emit error / context cancel); write
		// the error line anyway for proxies that buffered the stream.
		_ = enc.Encode(map[string]string{"error": err.Error()})
		return
	}
	s.fileTrace(w, r, http.StatusOK)
	closing := sweepEnvelopeLine{Envelope: env}
	if trace != nil {
		closing.TraceID = trace.span.Context().TraceID
	}
	_ = enc.Encode(closing)
	stream.flush()
}

// lineStream writes a sweep's point lines to a streaming response with
// group commit. A write appends its line to the response and wakes the
// stream's flusher goroutine without waiting for it; the flusher flushes
// everything written so far, so on an idle stream a line goes out as soon
// as the flusher runs, and lines written while a flush is in progress go
// out together in the next one. The mutex keeps writes and flushes off the
// ResponseWriter at the same time.
type lineStream struct {
	w       http.ResponseWriter
	flusher http.Flusher // nil when w cannot flush

	mu   sync.Mutex
	kick chan struct{} // capacity 1: a pending kick covers every later write
	done chan struct{} // closed when the flusher goroutine has exited
}

// newLineStream starts the flusher goroutine when w can flush; close stops
// it.
func newLineStream(w http.ResponseWriter) *lineStream {
	st := &lineStream{w: w}
	st.flusher, _ = w.(http.Flusher)
	if st.flusher == nil {
		return st
	}
	st.kick = make(chan struct{}, 1)
	st.done = make(chan struct{})
	go func() {
		defer close(st.done)
		for range st.kick {
			st.mu.Lock()
			st.flusher.Flush()
			st.mu.Unlock()
		}
	}()
	return st
}

// write appends one line to the response and kicks the flusher. Writes
// must not overlap one another or follow close.
func (st *lineStream) write(line []byte) error {
	st.mu.Lock()
	_, err := st.w.Write(line)
	st.mu.Unlock()
	if st.kick != nil {
		select {
		case st.kick <- struct{}{}:
		default: // a kick is pending; its flush will carry this line
		}
	}
	return err
}

// close stops the flusher and returns once it has exited, after the
// flush a pending kick asked for.
func (st *lineStream) close() {
	if st.kick != nil {
		close(st.kick)
		<-st.done
	}
}

// flush flushes the response synchronously; it is for after close.
func (st *lineStream) flush() {
	if st.flusher != nil {
		st.flusher.Flush()
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
	// The -timeout budget bounds each scenario, mirroring batch mode's
	// per-graph deadline; the sweep as a whole runs to completion.
	runner := sweep.Runner{Engine: e, PointTimeout: tmpl.Timeout}
	var line []byte
	env, err := runner.Run(context.Background(), x, func(p sweep.Point) error {
		var err error
		if line, err = p.AppendJSON(line[:0]); err != nil {
			return err
		}
		_, err = out.Write(line)
		return err
	})
	if err != nil {
		return err
	}
	if err := json.NewEncoder(out).Encode(sweepEnvelopeLine{Envelope: env}); err != nil {
		return err
	}
	if env.Failed > 0 {
		return fmt.Errorf("%d of %d scenarios failed", env.Failed, env.Scenarios)
	}
	return nil
}
