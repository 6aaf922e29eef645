package telemetry

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// Span is one node of a per-job trace tree: a named phase with a start
// time, a duration once ended, typed key/value attributes, events and
// ordered children — live child spans and leaf phases filed by Record.
// Spans are safe for concurrent use (a sweep's scenarios attach children
// to the same parent from separate goroutines) and safe on a nil receiver,
// so instrumentation points run unconditionally and cost a nil check when
// tracing is off.
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
	children []child
}

// attrKind tags the unboxed value an attr holds.
type attrKind uint8

const (
	kindString attrKind = iota
	kindInt
	kindBool
)

// attr is one typed attribute: str holds a string value, num an integer
// or a bool (1 for true), so setting one never boxes its value.
type attr struct {
	key  string
	kind attrKind
	str  string
	num  int64
}

// value is the attribute as it renders in a SpanNode: integers as int64,
// so the JSON matches whatever integer type the call site held.
func (a attr) value() any {
	switch a.kind {
	case kindInt:
		return a.num
	case kindBool:
		return a.num != 0
	}
	return a.str
}

// attrOf types an event attribute value. Integer kinds widen to int64;
// anything else renders as its fmt.Sprint string.
func attrOf(key string, v any) attr {
	switch v := v.(type) {
	case string:
		return attr{key: key, kind: kindString, str: v}
	case bool:
		return boolAttr(key, v)
	case int:
		return attr{key: key, kind: kindInt, num: int64(v)}
	case int64:
		return attr{key: key, kind: kindInt, num: v}
	}
	return attr{key: key, kind: kindString, str: fmt.Sprint(v)}
}

func boolAttr(key string, v bool) attr {
	a := attr{key: key, kind: kindBool}
	if v {
		a.num = 1
	}
	return a
}

type spanEvent struct {
	name  string
	at    time.Time
	attrs []attr
}

// child is one entry of a span's ordered children: a live span, or — when
// span is nil — a leaf phase Record filed by value.
type child struct {
	span  *Span
	name  string
	start time.Time
	dur   time.Duration
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
	c := &Span{name: name, start: time.Now()}
	if parent.sc.TraceID != "" {
		c.sc = SpanContext{TraceID: parent.sc.TraceID, SpanID: newSpanID()}
		c.parentID = parent.sc.SpanID
	}
	parent.mu.Lock()
	parent.addChild(child{span: c})
	parent.mu.Unlock()
	return context.WithValue(ctx, spanKey{}, c), c
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

// SetString sets a string attribute, replacing an existing key.
func (s *Span) SetString(key, val string) {
	s.set(attr{key: key, kind: kindString, str: val})
}

// SetInt sets an integer attribute, replacing an existing key.
func (s *Span) SetInt(key string, val int64) {
	s.set(attr{key: key, kind: kindInt, num: val})
}

// SetBool sets a boolean attribute, replacing an existing key.
func (s *Span) SetBool(key string, val bool) {
	s.set(boolAttr(key, val))
}

func (s *Span) set(a attr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].key == a.key {
			s.attrs[i] = a
			return
		}
	}
	s.addAttr(a)
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
		if s.attrs[i].key == key && s.attrs[i].kind == kindInt {
			s.attrs[i].num += n
			return
		}
	}
	s.addAttr(attr{key: key, kind: kindInt, num: n})
}

// Event appends a timestamped point event — breaker opened, chaos fault
// fired, fallback taken — with optional alternating key/value attribute
// pairs. Unlike attributes, events keep ordering and wall-clock placement,
// so a degraded trace explains why it went local. Values are typed as
// attrs are: strings, bools and integers keep their kind, anything else
// is stored as its fmt.Sprint string.
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
		ev.attrs = append(ev.attrs, attrOf(key, kv[i+1]))
	}
	s.mu.Lock()
	s.events = append(s.events, ev)
	s.mu.Unlock()
}

// Record files an already-measured phase as a completed leaf child — for
// phases timed with plain clock reads (the worker-slot wait, the cache
// lookup, a K-Iter round) where threading a live span through would be
// noise. The leaf is stored by value in the span's ordered children, so
// recording one allocates nothing beyond occasional slice growth. The name
// is kept as given: build it once (a constant or a fixed table), not per
// call.
func (s *Span) Record(name string, start time.Time, d time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.addChild(child{name: name, start: start, dur: d})
	s.mu.Unlock()
}

// spanSliceCap is the first capacity of a span's attrs and children: most
// spans hold a few of each, so their slices grow once, not three times.
const spanSliceCap = 4

// addAttr and addChild append under s.mu.
func (s *Span) addAttr(a attr) {
	if s.attrs == nil {
		s.attrs = make([]attr, 0, spanSliceCap)
	}
	s.attrs = append(s.attrs, a)
}

func (s *Span) addChild(c child) {
	if s.children == nil {
		s.children = make([]child, 0, spanSliceCap)
	}
	s.children = append(s.children, c)
}

// SpanNode is the exported JSON form of a span tree, as the flight
// recorder renders it on read and GET /debug/traces/{id} returns it.
// TraceID is set on roots only; SpanID/ParentID appear on spans that
// participate in cross-process propagation.
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

// Snapshot renders the live span tree rooted at s. Unended spans (a
// cancelled job still winding down) report the duration so far. It is the
// reference rendering: the flight recorder retains an encoding instead
// and decodes it on read, and its tests hold that decode to this output.
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
			n.Attrs[a.key] = a.value()
		}
	}
	for _, ev := range s.events {
		out := SpanEvent{Name: ev.name, AtUnixNano: ev.at.UnixNano()}
		if len(ev.attrs) > 0 {
			out.Attrs = make(map[string]any, len(ev.attrs))
			for _, a := range ev.attrs {
				out.Attrs[a.key] = a.value()
			}
		}
		n.Events = append(n.Events, out)
	}
	children := append([]child(nil), s.children...)
	s.mu.Unlock()
	for _, c := range children {
		if c.span != nil {
			n.Children = append(n.Children, c.span.Snapshot())
			continue
		}
		n.Children = append(n.Children, &SpanNode{
			Name:          c.name,
			StartUnixNano: c.start.UnixNano(),
			DurMS:         float64(c.dur) / float64(time.Millisecond),
		})
	}
	return n
}
