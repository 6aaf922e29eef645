package telemetry

import (
	"context"
	"sync"
	"time"
)

// Span is one node of a per-job trace tree: a named phase with a start
// time, a duration once ended, key/value attributes, events and child
// spans. Spans are safe for concurrent use (a sweep's scenarios attach
// children to the same parent from separate goroutines) and safe on a nil
// receiver, so instrumentation points run unconditionally and cost a nil
// check when tracing is off.
type Span struct {
	name     string
	start    time.Time
	sc       SpanContext
	parentID string
	root     bool

	mu       sync.Mutex
	dur      time.Duration
	ended    bool
	attrs    []attr
	events   []spanEvent
	children []*Span
}

type attr struct {
	key string
	val any
}

type spanEvent struct {
	name  string
	at    time.Time
	attrs []attr
}

// NewTrace starts a root span — the per-request entry point; everything
// below it attaches through contexts via StartSpan. The root is minted
// with a fresh SpanContext, so every trace is addressable fleet-wide.
func NewTrace(name string) *Span {
	return &Span{name: name, start: time.Now(), sc: NewSpanContext(), root: true}
}

// NewRemoteTrace starts a root span for the receiving side of a
// cross-process hop: it joins the caller's trace (same TraceID) as a child
// of the caller's span, so stitching by parent span ID reassembles one
// logical tree across processes.
func NewRemoteTrace(name string, parent SpanContext) *Span {
	return &Span{
		name:     name,
		start:    time.Now(),
		sc:       SpanContext{TraceID: parent.TraceID, SpanID: newSpanID()},
		parentID: parent.SpanID,
		root:     true,
	}
}

// Context returns the span's identifiers. Nil or ID-less spans return the
// zero SpanContext, which encodes to no traceparent header.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.sc
}

type spanKey struct{}

// ContextWithSpan returns ctx carrying s as the active span. A nil s
// returns ctx unchanged, so tracing stays a no-op when disabled.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, s)
}

// FromContext returns the active span, or nil when ctx carries none.
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// StartSpan begins a child of ctx's active span and returns a context
// carrying it. When ctx has no active span (tracing off) both returns pass
// through: the original ctx and a nil span whose End is a no-op.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := FromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	child := &Span{name: name, start: time.Now()}
	if parent.sc.TraceID != "" {
		child.sc = SpanContext{TraceID: parent.sc.TraceID, SpanID: newSpanID()}
		child.parentID = parent.sc.SpanID
	}
	parent.mu.Lock()
	parent.children = append(parent.children, child)
	parent.mu.Unlock()
	return context.WithValue(ctx, spanKey{}, child), child
}

// End closes the span, fixing its duration. Safe to call more than once;
// only the first End counts.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ended {
		s.ended = true
		s.dur = time.Since(s.start)
	}
}

// SetAttr sets a key/value attribute, replacing an existing key.
func (s *Span) SetAttr(key string, val any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].key == key {
			s.attrs[i].val = val
			return
		}
	}
	s.attrs = append(s.attrs, attr{key: key, val: val})
}

// AddInt accumulates n into an integer attribute, creating it at n — the
// shape solver loops need (arcs built per round, Howard iterations per
// solve) without read-modify-write at every site.
func (s *Span) AddInt(key string, n int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].key == key {
			if v, ok := s.attrs[i].val.(int64); ok {
				s.attrs[i].val = v + n
				return
			}
		}
	}
	s.attrs = append(s.attrs, attr{key: key, val: n})
}

// Event appends a timestamped point event — breaker opened, chaos fault
// fired, fallback taken — with optional alternating key/value attribute
// pairs. Unlike attributes, events keep ordering and wall-clock placement,
// so a degraded trace explains why it went local.
func (s *Span) Event(name string, kv ...any) {
	if s == nil {
		return
	}
	ev := spanEvent{name: name, at: time.Now()}
	for i := 0; i+1 < len(kv); i += 2 {
		key, ok := kv[i].(string)
		if !ok {
			continue
		}
		ev.attrs = append(ev.attrs, attr{key: key, val: kv[i+1]})
	}
	s.mu.Lock()
	s.events = append(s.events, ev)
	s.mu.Unlock()
}

// Record attaches an already-measured phase as a completed child span —
// for phases timed with plain clock reads (the worker-slot wait, the
// cache lookup) where threading a live span through would be noise.
func (s *Span) Record(name string, start time.Time, d time.Duration) {
	if s == nil {
		return
	}
	child := &Span{name: name, start: start, dur: d, ended: true}
	s.mu.Lock()
	s.children = append(s.children, child)
	s.mu.Unlock()
}

// SpanNode is the exported JSON form of a span tree, as filed in the
// flight recorder and returned by GET /debug/traces/{id}. TraceID is set on roots only; SpanID/ParentID appear on spans
// that participate in cross-process propagation.
type SpanNode struct {
	Name          string         `json:"name"`
	TraceID       string         `json:"traceId,omitempty"`
	SpanID        string         `json:"spanId,omitempty"`
	ParentID      string         `json:"parentId,omitempty"`
	StartUnixNano int64          `json:"startUnixNano"`
	DurMS         float64        `json:"durMs"`
	Attrs         map[string]any `json:"attrs,omitempty"`
	Events        []SpanEvent    `json:"events,omitempty"`
	Children      []*SpanNode    `json:"spans,omitempty"`
}

// SpanEvent is the exported form of a point event on a span.
type SpanEvent struct {
	Name       string         `json:"name"`
	AtUnixNano int64          `json:"atUnixNano"`
	Attrs      map[string]any `json:"attrs,omitempty"`
}

// Snapshot renders the span tree rooted at s. Unended spans (a cancelled
// job still winding down) report the duration so far.
func (s *Span) Snapshot() *SpanNode {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	n := &SpanNode{
		Name:          s.name,
		SpanID:        s.sc.SpanID,
		ParentID:      s.parentID,
		StartUnixNano: s.start.UnixNano(),
		DurMS:         float64(s.dur) / float64(time.Millisecond),
	}
	if !s.ended {
		n.DurMS = float64(time.Since(s.start)) / float64(time.Millisecond)
	}
	if s.root {
		// A root (local or remote): carry the trace ID so the node is
		// self-describing once detached from its Span.
		n.TraceID = s.sc.TraceID
	}
	if len(s.attrs) > 0 {
		n.Attrs = make(map[string]any, len(s.attrs))
		for _, a := range s.attrs {
			n.Attrs[a.key] = a.val
		}
	}
	for _, ev := range s.events {
		out := SpanEvent{Name: ev.name, AtUnixNano: ev.at.UnixNano()}
		if len(ev.attrs) > 0 {
			out.Attrs = make(map[string]any, len(ev.attrs))
			for _, a := range ev.attrs {
				out.Attrs[a.key] = a.val
			}
		}
		n.Events = append(n.Events, out)
	}
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range children {
		n.Children = append(n.Children, c.Snapshot())
	}
	return n
}
