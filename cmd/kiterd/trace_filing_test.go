package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"kiter/internal/csdf"
	"kiter/internal/engine"
	"kiter/internal/gen"
	"kiter/internal/resilience"
	"kiter/internal/sdf3x"
	"kiter/internal/sweep"
	"kiter/internal/telemetry"
)

// filedRecord is what one request is expected to leave in the flight
// recorder. Local roots (/analyze, /sweep) carry the request ID and an
// ok/error status attribute; remote roots (the cluster endpoints, joined
// from a caller's traceparent) carry the calling peer instead.
type filedRecord struct {
	endpoint string
	status   int
	root     string
	remote   bool
}

// holdDispatcher keeps every dispatched job pending until release closes,
// then declines it back to local evaluation.
type holdDispatcher struct{ release chan struct{} }

func (d holdDispatcher) Dispatch(ctx context.Context, _ *engine.DispatchJob) (*engine.Result, bool, error) {
	select {
	case <-d.release:
	case <-ctx.Done():
	}
	return nil, false, nil
}

// goneClient is a response writer whose client disconnects at the first
// body write: the write fails and the request context is cancelled.
type goneClient struct {
	h      http.Header
	code   int
	cancel context.CancelFunc
}

func (w *goneClient) Header() http.Header  { return w.h }
func (w *goneClient) WriteHeader(code int) { w.code = code }
func (w *goneClient) Write([]byte) (int, error) {
	w.cancel()
	return 0, errors.New("client disconnected")
}

// jsonGraph renders g in the repository's JSON format.
func jsonGraph(t *testing.T, g *csdf.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := sdf3x.WriteJSON(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTraceFiling pins which requests file a trace and what each record
// says, driving a full single-replica kiterd stack through ServeHTTP: one
// record for every served /analyze and /sweep and for each cluster
// endpoint called with a traceparent, none for requests refused before
// their root opens, and none at all without a flight recorder. The
// request histogram counts each request under the status it was filed
// under.
func TestTraceFiling(t *testing.T) {
	graph := jsonGraph(t, gen.Figure2())
	evaluateBody := []byte(`{"graph": ` + string(graph) + `, "analyses": ["throughput"]}`)
	sweepBody, err := json.Marshal(sweep.VideoPipelineSpec(3, 3))
	if err != nil {
		t.Fatal(err)
	}
	caller := telemetry.NewSpanContext()
	traced := map[string]string{
		telemetry.Traceparent: caller.Traceparent(),
		"X-Kiter-Peer":        "10.0.0.9:7000",
	}
	shedding := resilience.NewAdmission(resilience.Estimator{
		QuantileWait: func(float64) float64 { return 10 },
		Pending:      func() int { return 100 },
		Workers:      1,
	}, nil)

	cases := []struct {
		name         string
		method, path string
		body         []byte
		header       map[string]string
		// stack builds the server and its recorder; nil boots a fresh
		// single-replica stack.
		stack func(t *testing.T) (*server, *telemetry.Recorder)
		// prep adjusts the server before the request.
		prep func(t *testing.T, srv *server)
		// serve overrides the plain in-process round trip and returns the
		// reply's status.
		serve func(t *testing.T, srv *server, req *http.Request) int
		code  int
		want  *filedRecord // nil: the request files nothing
	}{
		{name: "analyze ok", method: http.MethodPost, path: "/analyze", body: graph,
			code: http.StatusOK, want: &filedRecord{"/analyze", http.StatusOK, "analyze", false}},
		{name: "analyze malformed", method: http.MethodPost, path: "/analyze", body: []byte(`{"tasks": [`),
			code: http.StatusBadRequest, want: &filedRecord{"/analyze", http.StatusBadRequest, "analyze", false}},
		{name: "analyze oversized", method: http.MethodPost, path: "/analyze", body: graph,
			prep: func(t *testing.T, srv *server) { srv.maxBody = 64 },
			code: http.StatusRequestEntityTooLarge, want: &filedRecord{"/analyze", http.StatusRequestEntityTooLarge, "analyze", false}},
		{name: "analyze timeout", method: http.MethodPost, path: "/analyze", body: graph,
			prep: func(t *testing.T, srv *server) { srv.tmpl.Timeout = time.Nanosecond },
			code: http.StatusGatewayTimeout, want: &filedRecord{"/analyze", http.StatusGatewayTimeout, "analyze", false}},
		{name: "analyze overloaded", method: http.MethodPost, path: "/analyze", body: jsonGraph(t, gen.SampleRateConverter()),
			stack: overloadedStack,
			code:  http.StatusServiceUnavailable, want: &filedRecord{"/analyze", http.StatusServiceUnavailable, "analyze", false}},
		{name: "analyze wrong method", method: http.MethodGet, path: "/analyze",
			code: http.StatusMethodNotAllowed},
		{name: "analyze shed", method: http.MethodPost, path: "/analyze", body: graph,
			prep: func(t *testing.T, srv *server) { srv.admission = shedding },
			code: http.StatusTooManyRequests},
		{name: "analyze draining", method: http.MethodPost, path: "/analyze", body: graph,
			prep: func(t *testing.T, srv *server) { srv.startDrain() },
			code: http.StatusServiceUnavailable},
		{name: "sweep ok", method: http.MethodPost, path: "/sweep", body: sweepBody,
			code: http.StatusOK, want: &filedRecord{"/sweep", http.StatusOK, "sweep", false}},
		{name: "sweep client gone", method: http.MethodPost, path: "/sweep", body: sweepBody,
			serve: func(t *testing.T, srv *server, req *http.Request) int {
				ctx, cancel := context.WithCancel(req.Context())
				defer cancel()
				w := &goneClient{h: http.Header{}, code: http.StatusOK, cancel: cancel}
				srv.ServeHTTP(w, req.WithContext(ctx))
				return w.code
			},
			code: http.StatusOK, want: &filedRecord{"/sweep", http.StatusInternalServerError, "sweep", false}},
		{name: "sweep bad spec", method: http.MethodPost, path: "/sweep", body: []byte("nope"),
			code: http.StatusBadRequest},
		{name: "sweep uncompilable", method: http.MethodPost, path: "/sweep",
			body: []byte(`{"base": {"tasks":[{"name":"A","durations":[1]}]}, "parameters": [{"name": "p", "target": {"kind": "duration", "task": "Z"}, "values": [1]}]}`),
			code: http.StatusBadRequest},
		{name: "evaluate traced", method: http.MethodPost, path: "/cluster/evaluate", body: evaluateBody, header: traced,
			code: http.StatusOK, want: &filedRecord{"/cluster/evaluate", http.StatusOK, "cluster.evaluate", true}},
		{name: "evaluate untraced", method: http.MethodPost, path: "/cluster/evaluate", body: evaluateBody,
			code: http.StatusOK},
		{name: "evaluate draining", method: http.MethodPost, path: "/cluster/evaluate", body: evaluateBody, header: traced,
			prep: func(t *testing.T, srv *server) { srv.startDrain() },
			code: http.StatusServiceUnavailable},
		{name: "cache get traced", method: http.MethodPost, path: "/cluster/cache/get",
			header: map[string]string{telemetry.Traceparent: caller.Traceparent(), "X-Kiter-Peer": "10.0.0.9:7000", "X-Kiter-Cache-Key": "0123|k"},
			code:   http.StatusNoContent, want: &filedRecord{"/cluster/cache/get", http.StatusNoContent, "cluster.cache.get", true}},
		{name: "cache get untraced", method: http.MethodPost, path: "/cluster/cache/get",
			header: map[string]string{"X-Kiter-Cache-Key": "0123|k"},
			code:   http.StatusNoContent},
	}
	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			stack := c.stack
			if stack == nil {
				stack = replicaStack
			}
			srv, rec := stack(t)
			if c.prep != nil {
				c.prep(t, srv)
			}
			reqID := fmt.Sprintf("filing-%d", i)
			req := httptest.NewRequest(c.method, c.path, bytes.NewReader(c.body))
			req.Header.Set(requestIDHeader, reqID)
			for k, v := range c.header {
				req.Header.Set(k, v)
			}
			var code int
			if c.serve != nil {
				code = c.serve(t, srv, req)
			} else {
				w := httptest.NewRecorder()
				srv.ServeHTTP(w, req)
				code = w.Code
			}
			if code != c.code {
				t.Fatalf("status %d, want %d", code, c.code)
			}
			// The request histogram counts the request once, under the
			// status its trace was filed under, or its reply's when it
			// files none.
			if srv.httpHist != nil {
				counted := c.code
				if c.want != nil {
					counted = c.want.status
				}
				if n := srv.httpHist.With(endpointLabel(c.path), strconv.Itoa(counted)).Count(); n != 1 {
					t.Errorf("request histogram counts %d requests under %d, want 1", n, counted)
				}
			}
			var mine []telemetry.RecordedTrace
			for _, r := range rec.List(0) {
				if r.RequestID == reqID {
					mine = append(mine, r)
				}
			}
			if c.want == nil {
				if len(mine) != 0 {
					t.Fatalf("filed %d records, want none: %+v", len(mine), mine)
				}
				return
			}
			if len(mine) != 1 {
				t.Fatalf("filed %d records, want 1: %+v", len(mine), mine)
			}
			checkFiled(t, rec, mine[0], reqID, *c.want)
		})
	}

	// Without a flight recorder (-trace-buffer 0) nothing is traced: no
	// reply names a trace and there is nowhere to pull one from.
	e := engine.New(engine.Config{Workers: 2})
	t.Cleanup(e.Close)
	quiet := newServer(e, testTemplate(), nil, observability{})
	for _, c := range cases[:3] {
		w := record(t, quiet, c.method, c.path, c.body)
		if tid := w.Header().Get(traceIDHeader); tid != "" {
			t.Errorf("%s without a recorder: %s = %q", c.name, traceIDHeader, tid)
		}
	}
	if w := record(t, quiet, http.MethodPost, "/sweep", sweepBody); w.Code != http.StatusOK || w.Header().Get(traceIDHeader) != "" {
		t.Errorf("/sweep without a recorder: status %d, %s = %q", w.Code, traceIDHeader, w.Header().Get(traceIDHeader))
	}
	if w := record(t, quiet, http.MethodGet, "/debug/traces", nil); w.Code != http.StatusNotFound {
		t.Errorf("/debug/traces without a recorder: status %d, want 404", w.Code)
	}
}

// checkFiled compares one filed record, span tree included, with want.
func checkFiled(t *testing.T, rec *telemetry.Recorder, got telemetry.RecordedTrace, reqID string, want filedRecord) {
	t.Helper()
	if got.Endpoint != want.endpoint || got.Status != want.status || got.Error != (want.status >= 400) {
		t.Fatalf("filed endpoint %q status %d error %v, want %q %d %v",
			got.Endpoint, got.Status, got.Error, want.endpoint, want.status, want.status >= 400)
	}
	var root *telemetry.SpanNode
	for _, r := range rec.Get(got.TraceID) {
		if r.RequestID == reqID {
			root = r.Root
		}
	}
	if root == nil || root.Name != want.root {
		t.Fatalf("filed root %+v, want %q", root, want.root)
	}
	if want.remote {
		if root.Attrs["caller"] != "10.0.0.9:7000" {
			t.Errorf("remote root caller = %v, want the X-Kiter-Peer header", root.Attrs["caller"])
		}
		for _, key := range []string{"requestId", "status"} {
			if v, ok := root.Attrs[key]; ok {
				t.Errorf("remote root carries %s = %v", key, v)
			}
		}
		return
	}
	status := "ok"
	if want.status >= 400 {
		status = "error"
	}
	if root.Attrs["requestId"] != reqID || root.Attrs["status"] != status {
		t.Errorf("local root requestId = %v status = %v, want %q %q",
			root.Attrs["requestId"], root.Attrs["status"], reqID, status)
	}
	if _, ok := root.Attrs["caller"]; ok {
		t.Errorf("local root carries caller = %v", root.Attrs["caller"])
	}
}

// replicaStack boots a full single-replica kiterd stack, cluster and
// flight recorder included.
func replicaStack(t *testing.T) (*server, *telemetry.Recorder) {
	reps, _ := startKiterdFleet(t, 1)
	return reps[0].hs.Handler.(*server), reps[0].rec
}

// overloadedStack builds a traced server whose engine, at MaxPending 1,
// holds one /analyze job pending until the test ends, so the next
// submission of another graph is refused with ErrOverloaded.
func overloadedStack(t *testing.T) (*server, *telemetry.Recorder) {
	hold := holdDispatcher{release: make(chan struct{})}
	e := engine.New(engine.Config{Workers: 1, MaxPending: 1, Dispatcher: hold})
	t.Cleanup(e.Close)
	rec := telemetry.NewRecorder(16)
	srv := newServer(e, testTemplate(), nil, observability{recorder: rec})
	done := make(chan struct{})
	go func() {
		defer close(done)
		record(t, srv, http.MethodPost, "/analyze", jsonGraph(t, gen.Figure2()))
	}()
	t.Cleanup(func() {
		close(hold.release)
		<-done
	})
	for deadline := time.Now().Add(10 * time.Second); e.PendingJobs() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("held job never became pending")
		}
	}
	return srv, rec
}

// TestAnalyzeFiledBeforeReplyEnds: a client that has read a whole
// /analyze reply always finds the trace the reply names. Half the graphs
// carry a 5,000-character name, which the reply echoes, so those replies
// pass 4 KiB and net/http streams them chunked.
func TestAnalyzeFiledBeforeReplyEnds(t *testing.T) {
	ts := httptest.NewServer(newObsServer(t))
	t.Cleanup(ts.Close)
	short := jsonGraph(t, gen.Figure2())
	g := gen.Figure2()
	g.Name = strings.Repeat("n", 5000)
	long := jsonGraph(t, g)
	largest := 0
	for i := 0; i < 200; i++ {
		body := short
		if i%2 == 1 {
			body = long
		}
		resp, err := http.Post(ts.URL+"/analyze", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		reply, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d, %v", i, resp.StatusCode, err)
		}
		largest = max(largest, len(reply))
		tid := resp.Header.Get(traceIDHeader)
		tr, err := http.Get(ts.URL + "/debug/traces/" + tid)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, tr.Body)
		tr.Body.Close()
		if tr.StatusCode != http.StatusOK {
			t.Fatalf("request %d: trace %s read back with status %d after the reply ended", i, tid, tr.StatusCode)
		}
	}
	if largest <= 4<<10 {
		t.Fatalf("largest reply %d bytes, want one over 4 KiB", largest)
	}
}

// TestSweepFiledBeforeClosingLine: a client reading a /sweep stream line
// by line finds the trace the closing line names as soon as it reads that
// line, before the stream ends.
func TestSweepFiledBeforeClosingLine(t *testing.T) {
	ts := httptest.NewServer(newObsServer(t))
	t.Cleanup(ts.Close)
	body, err := json.Marshal(sweep.VideoPipelineSpec(3, 3))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	lines := bufio.NewReader(resp.Body)
	for {
		line, err := lines.ReadBytes('\n')
		if err != nil {
			t.Fatalf("stream ended without a closing line: %v", err)
		}
		var closing sweepEnvelopeLine
		if json.Unmarshal(line, &closing) != nil || closing.Envelope == nil {
			continue
		}
		if closing.TraceID == "" {
			t.Fatal("closing line names no trace")
		}
		tr, err := http.Get(ts.URL + "/debug/traces/" + closing.TraceID)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, tr.Body)
		tr.Body.Close()
		if tr.StatusCode != http.StatusOK {
			t.Fatalf("trace %s read back with status %d after the closing line", closing.TraceID, tr.StatusCode)
		}
		break
	}
	if rest, err := io.ReadAll(lines); err != nil || len(bytes.TrimSpace(rest)) != 0 {
		t.Fatalf("after the closing line: %q, %v", rest, err)
	}
}
