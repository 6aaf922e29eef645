package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"kiter/internal/faultinject"
	"kiter/internal/telemetry"
)

// postTracedAnalyze POSTs a graph to one replica and returns the trace ID
// the server exposed on the response.
func postTracedAnalyze(t *testing.T, addr string, body []byte) string {
	t.Helper()
	resp, err := http.Post("http://"+addr+"/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /analyze via %s: %v", addr, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /analyze via %s: status %d", addr, resp.StatusCode)
	}
	if resp.Header.Get("X-Request-ID") == "" {
		t.Fatalf("analyze via %s: no X-Request-ID response header", addr)
	}
	tid := resp.Header.Get("X-Kiter-Trace-Id")
	if tid == "" {
		t.Fatalf("analyze via %s: no X-Kiter-Trace-Id response header", addr)
	}
	var reply analyzeResponse
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		t.Fatalf("decoding analyze reply: %v", err)
	}
	if reply.Result == nil || reply.Result.Throughput == nil {
		t.Fatalf("analyze via %s: no throughput result", addr)
	}
	return tid
}

// stitchedTrace is the GET /debug/traces/{id}?fleet=1 reply shape.
type stitchedTrace struct {
	TraceID   string                `json:"traceId"`
	Processes []string              `json:"processes"`
	Records   int                   `json:"records"`
	Detached  int                   `json:"detached"`
	Spans     []*telemetry.SpanNode `json:"spans"`
}

// fetchStitched pulls one trace's fleet-wide stitched tree from addr.
func fetchStitched(t *testing.T, addr, traceID string) stitchedTrace {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/debug/traces/" + traceID + "?fleet=1")
	if err != nil {
		t.Fatalf("GET /debug/traces/%s?fleet=1: %v", traceID, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/traces/%s?fleet=1: status %d", traceID, resp.StatusCode)
	}
	var st stitchedTrace
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding stitched trace: %v", err)
	}
	return st
}

// walkSpans applies f to every node of every tree.
func walkSpans(nodes []*telemetry.SpanNode, f func(*telemetry.SpanNode)) {
	for _, n := range nodes {
		if n == nil {
			continue
		}
		f(n)
		walkSpans(n.Children, f)
	}
}

// spanProcesses collects the distinct "process" attrs stamped on stitched
// subtree roots — how many processes contributed spans to one tree.
func spanProcesses(nodes []*telemetry.SpanNode) map[string]bool {
	procs := map[string]bool{}
	walkSpans(nodes, func(n *telemetry.SpanNode) {
		if p, ok := n.Attrs["process"].(string); ok && p != "" {
			procs[p] = true
		}
	})
	return procs
}

// hasEvent reports whether any span in the trees carries the named event.
func hasEvent(nodes []*telemetry.SpanNode, name string) bool {
	found := false
	walkSpans(nodes, func(n *telemetry.SpanNode) {
		for _, ev := range n.Events {
			if ev.Name == name {
				found = true
			}
		}
	})
	return found
}

// TestFleetStitchedTrace is the distributed-tracing acceptance test: a
// 3-replica fleet serves forwarded /analyze requests, and the stitched
// ?fleet=1 view of a forwarded request's trace is ONE tree containing
// spans recorded by at least two processes, joined across the HTTP hop by
// parent span ID. Then, with the forward chaos point armed, the severed
// forward must leave chaos.severed and fallback.local span events in the
// trace instead of remote spans.
func TestFleetStitchedTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet e2e under -short")
	}
	body := graphBody(t)

	// Clean path: the same graph posted through every replica — the two
	// non-owners forward it to the owner's engine, so their traces span
	// two processes.
	reps, stop := startKiterdFleet(t, 3)
	multi := 0
	for _, r := range reps {
		tid := postTracedAnalyze(t, r.addr, body)
		st := fetchStitched(t, r.addr, tid)
		if st.Records == 0 || len(st.Spans) == 0 {
			t.Fatalf("trace %s via %s: empty stitched view: %+v", tid, r.addr, st)
		}
		procs := spanProcesses(st.Spans)
		if len(st.Processes) >= 2 {
			multi++
			// A genuinely distributed trace: the remote handler's subtree
			// must be grafted under the local cluster.forward span, not
			// floating detached, and the span-level process stamps must
			// agree with the record-level processes list.
			if st.Detached != 0 {
				t.Fatalf("trace %s: %d detached subtrees in %+v", tid, st.Detached, st)
			}
			if len(st.Spans) != 1 {
				t.Fatalf("trace %s: stitched into %d roots, want 1", tid, len(st.Spans))
			}
			if len(procs) < 2 {
				t.Fatalf("trace %s: span process stamps %v, want >= 2", tid, procs)
			}
			remote := false
			walkSpans(st.Spans, func(n *telemetry.SpanNode) {
				if n.Name == "cluster.evaluate" {
					remote = true
				}
			})
			if !remote {
				t.Fatalf("trace %s: no cluster.evaluate span in stitched tree", tid)
			}
		}
	}
	if multi == 0 {
		t.Fatal("no request produced a multi-process stitched trace (no forward happened?)")
	}
	stop()

	// Severed path: every forward attempt fails at the chaos point. The
	// non-owner replicas must fall back to local evaluation and their
	// traces must explain the miss as span events.
	set, err := faultinject.Parse("dispatch.forward:error")
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Activate(set)
	defer faultinject.Activate(nil)

	reps, _ = startKiterdFleet(t, 3)
	severed, fellBack := false, false
	for _, r := range reps {
		tid := postTracedAnalyze(t, r.addr, body)
		st := fetchStitched(t, r.addr, tid)
		if hasEvent(st.Spans, "chaos.severed") {
			severed = true
		}
		if hasEvent(st.Spans, "fallback.local") {
			fellBack = true
		}
	}
	if !severed || !fellBack {
		t.Fatalf("severed forwards left no explanation: chaos.severed=%v fallback.local=%v",
			severed, fellBack)
	}
}

// TestMalformedAnalyzeTraced checks that the /analyze root span opens
// before the body is read, so decoding is traced: a body that is not JSON
// and one whose graph fails validation each leave an errored trace in
// the flight recorder, with status 400, under the ID the reply names.
func TestMalformedAnalyzeTraced(t *testing.T) {
	srv := newObsServer(t)
	for _, body := range []string{`{"tasks": [`, `{"tasks": [{"name": "a", "durations": []}]}`} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/analyze", strings.NewReader(body)))
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", body, rec.Code)
		}
		tid := rec.Header().Get(traceIDHeader)
		if tid == "" {
			t.Fatalf("%s: no %s on the reply", body, traceIDHeader)
		}
		recs := getTrace(t, srv, tid)
		if len(recs) != 1 {
			t.Fatalf("%s: trace %s has %d records, want 1", body, tid, len(recs))
		}
		r := recs[0]
		if r.Endpoint != "/analyze" || r.Status != http.StatusBadRequest || !r.Error || r.Root == nil || r.Root.Attrs["status"] != "error" {
			t.Fatalf("%s: recorded %+v, want an errored /analyze trace with status 400", body, r)
		}
	}
}
