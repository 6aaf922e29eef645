package telemetry

import (
	"sort"
	"sync"
	"time"
)

// RecordedTrace is one process's view of one trace: the finished span tree
// a handler produced, plus enough request metadata to list and correlate
// it. A fleet-wide trace is several RecordedTraces — one per process the
// request touched — reassembled by Stitch.
type RecordedTrace struct {
	TraceID       string    `json:"traceId"`
	RequestID     string    `json:"requestId,omitempty"`
	Endpoint      string    `json:"endpoint"`
	Process       string    `json:"process,omitempty"`
	Status        int       `json:"status,omitempty"`
	Error         bool      `json:"error,omitempty"`
	StartUnixNano int64     `json:"startUnixNano"`
	DurMS         float64   `json:"durMs"`
	Root          *SpanNode `json:"root,omitempty"`
}

// Recorder is the always-on flight recorder: a bounded in-memory buffer of
// recent traces with tail-biased retention. Three segments split the
// capacity — a FIFO ring of the most recent traces (cap/2), a
// keep-the-slowest set (cap/4) and a FIFO ring of errored traces (cap/4) —
// so the traces worth debugging (the latency tail and the failures)
// survive long after plain recent traffic has rotated out.
//
// Each retained trace is its listing metadata plus its span tree encoded
// as one pointer-free string; span trees exist only while a reader holds
// what Get decoded.
//
// All methods are safe for concurrent use and no-ops on a nil receiver, so
// recording sites run unconditionally.
type Recorder struct {
	mu      sync.Mutex
	recent  []*retainedTrace // FIFO ring
	recentI int
	slow    []*retainedTrace // evict-fastest set
	errored []*retainedTrace // FIFO ring
	errI    int

	recentCap, slowCap, errCap int
	added                      uint64
}

// retainedTrace is one recorder entry, immutable once filed: meta with a
// nil Root, and the span tree in encodeTrace's encoding.
type retainedTrace struct {
	meta RecordedTrace
	tree string
}

// NewRecorder returns a recorder holding at most cap traces (minimum 8).
func NewRecorder(capacity int) *Recorder {
	if capacity < 8 {
		capacity = 8
	}
	return &Recorder{
		recentCap: capacity / 2,
		slowCap:   capacity / 4,
		errCap:    capacity - capacity/2 - capacity/4,
	}
}

// add files one finished trace: meta for the listing, tree its encoded
// span tree.
func (r *Recorder) add(meta RecordedTrace, tree string) {
	if r == nil || meta.TraceID == "" || tree == "" {
		return
	}
	rec := &retainedTrace{meta: meta, tree: tree}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.added++

	if len(r.recent) < r.recentCap {
		r.recent = append(r.recent, rec)
	} else {
		r.recent[r.recentI] = rec
		r.recentI = (r.recentI + 1) % r.recentCap
	}

	if meta.Error {
		if len(r.errored) < r.errCap {
			r.errored = append(r.errored, rec)
		} else {
			r.errored[r.errI] = rec
			r.errI = (r.errI + 1) % r.errCap
		}
		return
	}

	if len(r.slow) < r.slowCap {
		r.slow = append(r.slow, rec)
		return
	}
	// Full: replace the fastest resident if this trace is slower.
	fastest := 0
	for i := 1; i < len(r.slow); i++ {
		if r.slow[i].meta.DurMS < r.slow[fastest].meta.DurMS {
			fastest = i
		}
	}
	if meta.DurMS > r.slow[fastest].meta.DurMS {
		r.slow[fastest] = rec
	}
}

// Finish ends root and files it as one trace: the request to endpoint
// served by process under requestID, answered with HTTP status (>= 400
// marks it errored). TraceID, start and duration come from the root. The
// tree is walked once, each span under its own lock, into one compact
// encoding; spans still open report their duration up to Finish, and
// nothing done to the spans afterwards reaches the recorder. This is how
// every handler records its trace; a nil recorder or root makes it a
// no-op.
func (r *Recorder) Finish(root *Span, endpoint, process, requestID string, status int) {
	if r == nil || root == nil {
		return
	}
	root.End()
	tree := encodeTrace(root, time.Now())
	root.mu.Lock()
	start, dur := root.start, root.dur
	root.mu.Unlock()
	r.add(RecordedTrace{
		TraceID:       root.Context().TraceID,
		RequestID:     requestID,
		Endpoint:      endpoint,
		Process:       process,
		Status:        status,
		Error:         status >= 400,
		StartUnixNano: start.UnixNano(),
		DurMS:         float64(dur) / float64(time.Millisecond),
	}, tree)
}

// Added returns the lifetime count of recorded traces.
func (r *Recorder) Added() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.added
}

// Get returns every retained record for the given trace ID — a process can
// hold several per trace (its /analyze root plus handler-side subtrees for
// evaluate and cache-read hops it served for peers). Each call decodes
// fresh span trees, so callers may graft or annotate them freely.
func (r *Recorder) Get(traceID string) []RecordedTrace {
	if r == nil || traceID == "" {
		return nil
	}
	var found []*retainedTrace
	r.mu.Lock()
	r.each(func(rec *retainedTrace) {
		if rec.meta.TraceID == traceID {
			found = append(found, rec)
		}
	})
	r.mu.Unlock()
	if len(found) == 0 {
		return nil
	}
	out := make([]RecordedTrace, len(found))
	for i, rec := range found {
		out[i] = rec.meta
		out[i].Root = decodeTrace(rec.tree)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].StartUnixNano < out[j].StartUnixNano })
	return out
}

// List returns the metadata of up to limit retained traces, newest first,
// spanning all three retention segments without duplicates. It decodes no
// span trees: every Root is nil.
func (r *Recorder) List(limit int) []RecordedTrace {
	if r == nil {
		return nil
	}
	var out []RecordedTrace
	r.mu.Lock()
	r.each(func(rec *retainedTrace) { out = append(out, rec.meta) })
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].StartUnixNano > out[j].StartUnixNano })
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// each calls f once per retained trace; a trace can sit in two segments
// (recent and slow or errored). The caller holds r.mu.
func (r *Recorder) each(f func(*retainedTrace)) {
	seen := map[*retainedTrace]bool{}
	for _, seg := range [][]*retainedTrace{r.recent, r.slow, r.errored} {
		for _, rec := range seg {
			if !seen[rec] {
				seen[rec] = true
				f(rec)
			}
		}
	}
}

// exemplarWindow is how far back the slowest-trace exemplars look: a trace
// that started earlier no longer names the current latency tail.
const exemplarWindow = 2 * time.Minute

// RegisterExemplars exposes kiter_http_slowest_trace_seconds, the
// exemplar link from the latency histograms on /metrics to the recorder:
// per endpoint, the slowest retained trace that started within the last
// two minutes, with its trace ID as a label. The sample is derived at
// scrape time from the retained traces, so every traceId it names can be
// pulled from /debug/traces/{id}. Cardinality stays bounded by the
// server's fixed endpoint set.
func (r *Recorder) RegisterExemplars(reg *Registry) {
	if r == nil || reg == nil {
		return
	}
	reg.Collect(func(x *ExpoWriter) {
		since := time.Now().Add(-exemplarWindow).UnixNano()
		slowest := map[string]RecordedTrace{}
		for _, rec := range r.List(0) {
			if rec.StartUnixNano < since {
				continue
			}
			if cur, ok := slowest[rec.Endpoint]; !ok || rec.DurMS > cur.DurMS {
				slowest[rec.Endpoint] = rec
			}
		}
		eps := make([]string, 0, len(slowest))
		for ep := range slowest {
			eps = append(eps, ep)
		}
		sort.Strings(eps)
		x.Family("kiter_http_slowest_trace_seconds", "gauge",
			"Duration of the slowest retained trace per endpoint that started in the last 2 minutes; traceId labels the flight-recorder trace to pivot to.")
		for _, ep := range eps {
			ex := slowest[ep]
			x.Sample("kiter_http_slowest_trace_seconds", ex.DurMS/1000,
				"endpoint", ep, "traceId", ex.TraceID)
		}
	})
}

// Stitch reassembles one logical trace from per-process records: each
// record whose root names a parent span ID found in another record's tree
// is grafted under that parent. It returns the resulting roots — one tree
// when every hop was captured; orphaned subtrees (their parent's process
// unreachable or rotated out) stay separate roots, marked detached. The
// second return counts those detached subtrees. Stitch grafts and stamps
// the records' own trees in place; Recorder.Get decodes fresh ones on
// every call, so stitching never reaches the recorder.
func Stitch(records []RecordedTrace) ([]*SpanNode, int) {
	byID := map[string]*SpanNode{}
	roots := make([]*SpanNode, 0, len(records))
	for i := range records {
		root := records[i].Root
		if root == nil {
			continue
		}
		if records[i].Process != "" && root.Attrs["process"] == nil {
			if root.Attrs == nil {
				root.Attrs = map[string]any{}
			}
			root.Attrs["process"] = records[i].Process
		}
		roots = append(roots, root)
		indexSpans(root, byID)
	}
	// Graft until no progress: a record can parent another record that
	// itself parents a third (analyze → evaluate → cache get).
	for {
		progressed := false
		rest := roots[:0]
		for _, root := range roots {
			parent := byID[root.ParentID]
			if root.ParentID != "" && parent != nil && parent != root && !contains(root, parent) {
				parent.Children = append(parent.Children, root)
				progressed = true
				continue
			}
			rest = append(rest, root)
		}
		roots = rest
		if !progressed {
			break
		}
	}
	detached := 0
	for _, root := range roots {
		if root.ParentID != "" {
			detached++
			if root.Attrs == nil {
				root.Attrs = map[string]any{}
			}
			root.Attrs["detached"] = true
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].StartUnixNano < roots[j].StartUnixNano })
	return roots, detached
}

func indexSpans(n *SpanNode, byID map[string]*SpanNode) {
	if n.SpanID != "" {
		if _, dup := byID[n.SpanID]; !dup {
			byID[n.SpanID] = n
		}
	}
	for _, c := range n.Children {
		indexSpans(c, byID)
	}
}

// contains reports whether target is inside the tree rooted at n — the
// cycle guard for grafting (two records should never parent each other,
// but malformed remote data must not hang the stitcher).
func contains(n, target *SpanNode) bool {
	if n == target {
		return true
	}
	for _, c := range n.Children {
		if contains(c, target) {
			return true
		}
	}
	return false
}
