package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"kiter/internal/engine"
	"kiter/internal/gen"
	"kiter/internal/sweep"
)

// flushRecorder is an http.ResponseWriter and http.Flusher that logs
// every write and flush in order. It takes no lock of its own, so the race
// detector reports any write or flush not ordered against the others, and
// it reports any use after the handler returned.
type flushRecorder struct {
	t        *testing.T
	header   http.Header
	events   []string // each written chunk, or "flush"
	flushes  chan struct{}
	returned bool
}

func newFlushRecorder(t *testing.T) *flushRecorder {
	return &flushRecorder{t: t, header: http.Header{}, flushes: make(chan struct{}, 1)}
}

func (r *flushRecorder) Header() http.Header { return r.header }
func (r *flushRecorder) WriteHeader(int)     {}

func (r *flushRecorder) Write(p []byte) (int, error) {
	if r.returned {
		r.t.Errorf("Write after the handler returned: %q", p)
	}
	r.events = append(r.events, string(p))
	return len(p), nil
}

func (r *flushRecorder) Flush() {
	if r.returned {
		r.t.Error("Flush after the handler returned")
	}
	r.events = append(r.events, "flush")
	select {
	case r.flushes <- struct{}{}:
	default:
	}
}

// TestLineStreamFlushesIdleLine: one line written to an otherwise idle
// stream is flushed by the flusher alone, with no further write to push it.
func TestLineStreamFlushesIdleLine(t *testing.T) {
	rec := newFlushRecorder(t)
	st := newLineStream(rec)
	if err := st.write([]byte("line\n")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-rec.flushes:
	case <-time.After(10 * time.Second):
		t.Fatal("the line was not flushed while the stream was idle")
	}
	st.close()
	if got := strings.Join(rec.events, "|"); got != "line\n|flush" {
		t.Fatalf("events %q, want the line then one flush", got)
	}
}

// TestLineStreamGroupCommit: lines written back to back share flushes —
// never more flushes than lines — and once close returns, every line has
// been flushed, in order.
func TestLineStreamGroupCommit(t *testing.T) {
	rec := newFlushRecorder(t)
	st := newLineStream(rec)
	const lines = 2000
	var want strings.Builder
	for i := 0; i < lines; i++ {
		line := fmt.Sprintf("%d\n", i)
		want.WriteString(line)
		if err := st.write([]byte(line)); err != nil {
			t.Fatal(err)
		}
	}
	st.close()
	var body strings.Builder
	flushes := 0
	for _, ev := range rec.events {
		if ev == "flush" {
			flushes++
		} else {
			body.WriteString(ev)
		}
	}
	if body.String() != want.String() {
		t.Fatal("lines reordered or lost")
	}
	if flushes < 1 || flushes > lines {
		t.Fatalf("%d flushes for %d lines", flushes, lines)
	}
	if last := rec.events[len(rec.events)-1]; last != "flush" {
		t.Fatalf("last event %q: a line was left unflushed at close", last)
	}
	t.Logf("%d lines, %d flushes", lines, flushes)
}

// TestSweepEnvelopeIsLastWrite drives /sweep into a recording flusher:
// the envelope line is the last write, followed only by the handler's
// final flush, and nothing touches the writer after the handler returns.
// Run under -race, it also checks that the flusher goroutine and the
// scenario emitter never use the writer at the same time.
func TestSweepEnvelopeIsLastWrite(t *testing.T) {
	e := engine.New(engine.Config{Workers: 2})
	t.Cleanup(e.Close)
	srv := newServer(e, testTemplate(), nil, observability{})
	body, err := json.Marshal(sweep.VideoPipelineSpec(4, 5))
	if err != nil {
		t.Fatal(err)
	}
	rec := newFlushRecorder(t)
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/sweep", bytes.NewReader(body)))
	rec.returned = true
	ev := rec.events
	if n := len(ev); n < 2 || ev[n-1] != "flush" || !strings.HasPrefix(ev[n-2], `{"envelope":`) {
		t.Fatalf("stream does not end in the envelope and one flush: %q", ev[max(0, len(ev)-3):])
	}
	points := 0
	for _, e := range ev[:len(ev)-2] {
		if strings.HasPrefix(e, `{"envelope":`) {
			t.Fatal("envelope written before the last point")
		}
		if e != "flush" {
			points += strings.Count(e, "\n")
		}
	}
	if points != 20 {
		t.Fatalf("%d point lines before the envelope, want 20", points)
	}
	time.Sleep(10 * time.Millisecond) // a stray flusher would write into rec now
}

// TestReplyWritersMatchEncodingJSON compares the /analyze reply and the
// -batch line, written by the append writers, with what encoding/json
// writes for the same value, over real engine results: every section, a
// deadlock, a symbolic answer, a cache hit and a graph name that needs
// escaping.
func TestReplyWritersMatchEncodingJSON(t *testing.T) {
	e := engine.New(engine.Config{Workers: 2})
	t.Cleanup(e.Close)
	all := []engine.AnalysisKind{engine.AnalysisThroughput, engine.AnalysisSchedule, engine.AnalysisSizing, engine.AnalysisSymbolic}
	escaped := gen.Figure2()
	escaped.Name = "<fig&2> \"q\""
	reqs := []*engine.Request{
		{Graph: gen.Figure2(), Analyses: all, Method: engine.MethodKIter},
		{Graph: gen.Figure2(), Analyses: all, Method: engine.MethodKIter}, // a cache hit
		{Graph: gen.Figure2(), Method: engine.MethodSymbolic, NoCache: true},
		{Graph: gen.DeadlockedRing(), Analyses: all},
		{Graph: escaped, Method: engine.MethodPeriodic},
		{Graph: gen.KIterChain(4), Analyses: []engine.AnalysisKind{engine.AnalysisThroughput, engine.AnalysisSizing}},
	}
	var sawSections, sawHit, sawDeadlock bool
	for i, req := range reqs {
		res, err := e.Submit(context.Background(), req)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		sawSections = sawSections || res.Schedule != nil && len(res.Schedule.K) > 0 && res.Sizing != nil && res.Symbolic != nil && res.Symbolic.Events > 0
		sawHit = sawHit || res.CacheHit
		sawDeadlock = sawDeadlock || res.Throughput != nil && res.Throughput.Error != ""

		rec := httptest.NewRecorder()
		writeReply(rec, res)
		want, _ := encodeLine(analyzeResponse{Result: res})
		if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
			t.Fatalf("request %d: /analyze reply\n got %s\nwant %s", i, got, want)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" || rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d, content type %q", i, rec.Code, ct)
		}
		for _, line := range []ndjsonLine{{Path: "suite/<g>.json", Result: res}, {Path: "bad.json", Error: "decoding: \x01"}} {
			want, _ := encodeLine(line)
			got, err := line.appendJSON(nil)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("request %d: batch line (%v)\n got %s\nwant %s", i, err, got, want)
			}
		}
	}
	if !sawSections || !sawHit || !sawDeadlock {
		t.Fatalf("coverage: all sections %v, cache hit %v, deadlock %v", sawSections, sawHit, sawDeadlock)
	}
}

// encodeLine is the oracle: the bytes json.Encoder writes for v.
func encodeLine(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}
