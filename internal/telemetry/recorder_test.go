package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	sc := NewSpanContext()
	if !sc.Valid() {
		t.Fatalf("NewSpanContext invalid: %+v", sc)
	}
	h := sc.Traceparent()
	if !strings.HasPrefix(h, "00-") || !strings.HasSuffix(h, "-01") {
		t.Fatalf("traceparent %q not in 00-…-01 shape", h)
	}
	got, ok := ParseTraceparent(h)
	if !ok || got != sc {
		t.Fatalf("round trip: %q -> %+v (ok=%v), want %+v", h, got, ok, sc)
	}
}

func TestParseTraceparentRejects(t *testing.T) {
	for _, h := range []string{
		"",
		"garbage",
		"00-aaaa-bbbb-01", // wrong lengths
		"00-" + strings.Repeat("0", 32) + "-" + strings.Repeat("a", 16) + "-01", // zero trace
		"00-" + strings.Repeat("a", 32) + "-" + strings.Repeat("0", 16) + "-01", // zero span
		"00-" + strings.Repeat("g", 32) + "-" + strings.Repeat("a", 16) + "-01", // non-hex
	} {
		if _, ok := ParseTraceparent(h); ok {
			t.Fatalf("ParseTraceparent(%q) accepted", h)
		}
	}
	// Future versions must stay parseable (the spec requires it).
	h := "cc-" + strings.Repeat("a", 32) + "-" + strings.Repeat("b", 16) + "-01-extra"
	if _, ok := ParseTraceparent(h); !ok {
		t.Fatalf("ParseTraceparent(%q) rejected future version", h)
	}
}

// TestRemoteTraceJoins: a remote root opened from a parsed traceparent
// shares the trace ID and parents under the caller's span.
func TestRemoteTraceJoins(t *testing.T) {
	local := NewTrace("client")
	sc, ok := ParseTraceparent(local.Context().Traceparent())
	if !ok {
		t.Fatal("local span produced unparseable traceparent")
	}
	remote := NewRemoteTrace("server", sc)
	remote.End()
	local.End()
	rn, ln := remote.Snapshot(), local.Snapshot()
	if rn.TraceID != ln.TraceID {
		t.Fatalf("trace IDs diverge: %s vs %s", rn.TraceID, ln.TraceID)
	}
	if rn.ParentID != ln.SpanID {
		t.Fatalf("remote parent %s, want caller span %s", rn.ParentID, ln.SpanID)
	}
	if rn.SpanID == ln.SpanID {
		t.Fatal("remote root reused the caller's span ID")
	}
}

// rec is one trace for the recorder's internal add: its metadata and an
// encoded one-span tree.
func rec(id string, durMS float64, errored bool) (RecordedTrace, string) {
	return RecordedTrace{
		TraceID: id,
		Error:   errored,
		DurMS:   durMS,
	}, encodeTrace(NewTrace("analyze"), time.Now())
}

// TestRecorderTailBias: after heavy churn, the slowest and the errored
// traces are still retrievable while ordinary fast traffic has rotated out.
func TestRecorderTailBias(t *testing.T) {
	r := NewRecorder(16)
	r.add(rec("slowest", 5000, false))
	r.add(rec("bad", 1, true))
	// Durations creep upward so the evict-fastest policy has strictly
	// slower candidates: fast-0 cannot linger in the slow set on a tie.
	for i := 0; i < 500; i++ {
		r.add(rec(fmt.Sprintf("fast-%d", i), 1+float64(i)/10, false))
	}
	if got := r.Get("slowest"); len(got) != 1 {
		t.Fatalf("slowest trace evicted: %v", got)
	}
	if got := r.Get("bad"); len(got) != 1 {
		t.Fatalf("errored trace evicted: %v", got)
	}
	if got := r.Get("fast-0"); len(got) != 0 {
		t.Fatalf("ancient fast trace still retained: %v", got)
	}
	if r.Added() != 502 {
		t.Fatalf("Added = %d, want 502", r.Added())
	}
	if list := r.List(0); len(list) == 0 || len(list) > 16 {
		t.Fatalf("List returned %d records for a 16-cap recorder", len(list))
	}
}

// TestStitch: remote subtrees graft under their parent spans across
// multiple hops, and orphans are marked detached.
func TestStitch(t *testing.T) {
	records := []RecordedTrace{
		{TraceID: "t", Process: "a", StartUnixNano: 1, Root: &SpanNode{
			Name: "analyze", SpanID: "root",
			Children: []*SpanNode{{Name: "cluster.forward", SpanID: "fwd"}},
		}},
		{TraceID: "t", Process: "b", StartUnixNano: 2, Root: &SpanNode{
			Name: "cluster.evaluate", SpanID: "eval", ParentID: "fwd",
			Children: []*SpanNode{{Name: "cache.fleet.get", SpanID: "cget"}},
		}},
		// Third hop: b's cache read served by c, parented two levels deep.
		{TraceID: "t", Process: "c", StartUnixNano: 3, Root: &SpanNode{
			Name: "cluster.cache.get", SpanID: "srv", ParentID: "cget",
		}},
		// Orphan: its parent's record was never captured.
		{TraceID: "t", Process: "d", StartUnixNano: 4, Root: &SpanNode{
			Name: "cluster.claim", SpanID: "claim", ParentID: "missing",
		}},
	}
	roots, detached := Stitch(records)
	if detached != 1 {
		t.Fatalf("detached = %d, want 1", detached)
	}
	if len(roots) != 2 {
		t.Fatalf("roots = %d, want 2 (one stitched tree + one orphan)", len(roots))
	}
	tree := roots[0]
	if tree.SpanID != "root" {
		t.Fatalf("first root is %s, want the analyze root", tree.SpanID)
	}
	fwd := tree.Children[0]
	if len(fwd.Children) != 1 || fwd.Children[0].SpanID != "eval" {
		t.Fatalf("evaluate subtree not grafted under forward: %+v", fwd)
	}
	cget := fwd.Children[0].Children[0]
	if len(cget.Children) != 1 || cget.Children[0].SpanID != "srv" {
		t.Fatalf("second hop not grafted: %+v", cget)
	}
	if p, _ := fwd.Children[0].Attrs["process"].(string); p != "b" {
		t.Fatalf("grafted subtree lost its process stamp: %v", fwd.Children[0].Attrs)
	}
	orphan := roots[1]
	if orphan.SpanID != "claim" || orphan.Attrs["detached"] != true {
		t.Fatalf("orphan not marked detached: %+v", orphan)
	}
}

// TestStitchLeavesRecorderUnchanged: stitching what Get returned, as every
// GET /debug/traces/{id}?fleet=1 does, grafts and stamps only those
// copies. The recorder's traces read back unchanged, and each stitch finds
// one remote subtree under the forward span, not one per earlier stitch.
func TestStitchLeavesRecorderUnchanged(t *testing.T) {
	r := NewRecorder(8)
	root := NewTrace("analyze")
	_, fwd := StartSpan(ContextWithSpan(context.Background(), root), "cluster.forward")
	remote := NewRemoteTrace("cluster.evaluate", fwd.Context())
	r.Finish(remote, "/cluster/evaluate", "b", "", 200)
	fwd.End()
	r.Finish(root, "/analyze", "a", "req-1", 200)
	id := root.Context().TraceID
	want, err := json.Marshal(r.Get(id))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		roots, detached := Stitch(r.Get(id))
		if len(roots) != 1 || detached != 0 {
			t.Fatalf("stitch %d: %d roots, %d detached, want one tree", i, len(roots), detached)
		}
		if got := len(roots[0].Children[0].Children); got != 1 {
			t.Fatalf("stitch %d: cluster.forward holds %d remote roots, want 1", i, got)
		}
	}
	got, err := json.Marshal(r.Get(id))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("stitching changed the retained trace:\n got %s\nwant %s", got, want)
	}
}

// TestFinishWhileSpansGrow: Finish encodes a tree that other goroutines are
// still growing — a cancelled request's stragglers. Run under -race.
func TestFinishWhileSpansGrow(t *testing.T) {
	r := NewRecorder(8)
	root := NewTrace("sweep")
	ctx := ContextWithSpan(context.Background(), root)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_, s := StartSpan(ctx, "sweep.scenario")
				s.SetInt("scenario", int64(i))
				s.Record("queue.wait", time.Now(), time.Microsecond)
				s.AddInt("n", 1)
				s.Event("tick", "i", i)
				s.End()
			}
		}()
	}
	for i := 0; i < 20; i++ {
		r.Finish(root, "/sweep", "", "", 200)
	}
	wg.Wait()
	for _, rec := range r.Get(root.Context().TraceID) {
		if rec.Root == nil || rec.Root.Name != "sweep" {
			t.Fatalf("decoded root %+v", rec.Root)
		}
	}
}

// TestStitchCycleGuard: malformed records that parent each other must not
// hang or panic the stitcher.
func TestStitchCycleGuard(t *testing.T) {
	records := []RecordedTrace{
		{TraceID: "t", Root: &SpanNode{Name: "x", SpanID: "x", ParentID: "y"}},
		{TraceID: "t", Root: &SpanNode{Name: "y", SpanID: "y", ParentID: "x"}},
	}
	roots, _ := Stitch(records)
	if len(roots) == 0 {
		t.Fatal("cycle swallowed every root")
	}
}

// TestRecorderFinish: Finish ends the root and files it with the ID,
// timing and tree taken from the span; a status >= 400 marks it errored.
func TestRecorderFinish(t *testing.T) {
	r := NewRecorder(8)
	root := NewTrace("analyze")
	r.Finish(root, "/analyze", "a:1", "req-1", 504)
	got := r.Get(root.Context().TraceID)
	if len(got) != 1 {
		t.Fatalf("Finish filed %d records, want 1", len(got))
	}
	node := root.Snapshot()
	want := RecordedTrace{
		TraceID: root.Context().TraceID, RequestID: "req-1", Endpoint: "/analyze",
		Process: "a:1", Status: 504, Error: true,
		StartUnixNano: node.StartUnixNano, DurMS: node.DurMS,
	}
	if rec := got[0]; rec.Root == nil || rec.Root.Name != "analyze" {
		t.Fatalf("filed root = %+v", rec.Root)
	} else if rec.Root = nil; rec != want {
		t.Fatalf("filed %+v, want %+v", rec, want)
	}
	// Nil recorders and roots are inert.
	var nilR *Recorder
	nilR.Finish(NewTrace("x"), "/analyze", "", "", 200)
	r.Finish(nil, "/analyze", "", "", 200)
	if r.Added() != 1 {
		t.Fatalf("Added = %d after nil finishes, want 1", r.Added())
	}
}

// exemplars scrapes reg and returns kiter_http_slowest_trace_seconds as
// endpoint → sample line.
func exemplars(t *testing.T, reg *Registry) map[string]string {
	t.Helper()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, line := range strings.Split(sb.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, `kiter_http_slowest_trace_seconds{endpoint="`); ok {
			out[rest[:strings.IndexByte(rest, '"')]] = line
		}
	}
	return out
}

// traceIDLabel extracts the traceId label of one exemplar sample line.
func traceIDLabel(line string) string {
	_, rest, _ := strings.Cut(line, `traceId="`)
	id, _, _ := strings.Cut(rest, `"`)
	return id
}

// TestRecorderExemplars: the scrape-time exemplar per endpoint is the
// slowest retained trace that started in the window — never an evicted or
// stale one — so every traceId it names resolves through Get.
func TestRecorderExemplars(t *testing.T) {
	now := time.Now().UnixNano()
	at := func(id, endpoint string, durMS float64, start int64) (RecordedTrace, string) {
		return RecordedTrace{TraceID: id, Endpoint: endpoint, DurMS: durMS, StartUnixNano: start},
			encodeTrace(NewTrace("root"), time.Now())
	}
	// Capacity 8: a 4-slot recent ring, 2 slow slots, 2 error slots.
	r := NewRecorder(8)
	reg := NewRegistry()
	r.RegisterExemplars(reg)
	r.add(at("t1", "/analyze", 500, now))
	r.add(at("t2", "/analyze", 100, now)) // faster: must not replace
	r.add(at("t3", "/sweep", 1000, now))
	r.add(at("stale", "/analyze", 9000, now-int64(3*time.Minute))) // slowest, but out of window
	ex := exemplars(t, reg)
	if want := `kiter_http_slowest_trace_seconds{endpoint="/analyze",traceId="t1"} 0.5`; ex["/analyze"] != want {
		t.Fatalf("/analyze exemplar = %q, want %q", ex["/analyze"], want)
	}
	if traceIDLabel(ex["/sweep"]) != "t3" {
		t.Fatalf("/sweep exemplar = %q, want t3", ex["/sweep"])
	}

	// Evict t1: the slow set already dropped it for stale and t3, and four
	// newer, faster /analyze traces rotate it out of the recent ring.
	for i := 0; i < 4; i++ {
		r.add(at(fmt.Sprintf("f%d", i), "/analyze", float64(10+i), now))
	}
	if got := r.Get("t1"); len(got) != 0 {
		t.Fatalf("t1 still retained: %v", got)
	}
	if got := r.Get("stale"); len(got) != 1 {
		t.Fatalf("stale trace evicted, so the window check below proves nothing: %v", got)
	}
	ex = exemplars(t, reg)
	if id := traceIDLabel(ex["/analyze"]); id != "f3" {
		t.Fatalf("/analyze exemplar = %q after eviction, want the slowest retained f3", ex["/analyze"])
	}
	for ep, line := range ex {
		if id := traceIDLabel(line); len(r.Get(id)) == 0 {
			t.Fatalf("%s exemplar names trace %q the recorder cannot serve", ep, id)
		}
	}

	// Nil recorders are inert.
	var nilR *Recorder
	nilR.RegisterExemplars(reg)
	exemplars(t, reg)
}

// TestRecorderExemplarsConcurrent: scrapes read the recorder while
// handlers file traces into it. Run under -race.
func TestRecorderExemplarsConcurrent(t *testing.T) {
	r := NewRecorder(16)
	reg := NewRegistry()
	r.RegisterExemplars(reg)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Finish(NewTrace("analyze"), "/analyze", "", "", 200)
				if err := reg.WritePrometheus(io.Discard); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if r.Added() != 800 {
		t.Fatalf("Added = %d, want 800", r.Added())
	}
}

func TestRuntimeMetricsRegister(t *testing.T) {
	reg := NewRegistry()
	RegisterRuntimeMetrics(reg)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	expo := sb.String()
	for _, family := range []string{
		"kiter_go_goroutines",
		"kiter_go_gc_pause_seconds",
		"kiter_go_sched_latency_seconds",
		"kiter_go_memory_total_bytes",
	} {
		if !strings.Contains(expo, family) {
			t.Fatalf("runtime exposition missing %s:\n%.2000s", family, expo)
		}
	}
}
