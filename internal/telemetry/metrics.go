// Package telemetry is the dependency-free observability substrate behind
// kiterd's GET /metrics and GET /debug/traces: a metrics registry
// (counters, gauges, log-linear latency histograms) with Prometheus text
// exposition, lightweight per-job span trees carried through contexts, and
// the flight recorder that stores the finished trees.
//
// Everything is nil-tolerant by design: a nil *Registry hands out nil
// instruments, and every instrument method no-ops on a nil receiver. The
// engine, the cluster and the admission controller never rely on that:
// their counters are the ones their stats reports read, so without a
// registry of the process's they register in a private one.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a callback-backed point-in-time metric: the value function runs
// at scrape time, so gauges never need updating on the serving path.
type Gauge struct {
	name, help string
	fn         func() float64
}

// vec is the shared label-indexing machinery behind CounterVec and
// HistogramVec: children are created on first use and exposed in sorted
// key order for stable scrape output.
type vec[T any] struct {
	mu       sync.Mutex
	children map[string]T
	keys     map[string][]string // label values per child key
	labels   []string
	make     func() T
}

func (v *vec[T]) with(values ...string) T {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("telemetry: %d label values for %d labels", len(values), len(v.labels)))
	}
	key := strings.Join(values, "\x00")
	v.mu.Lock()
	defer v.mu.Unlock()
	child, ok := v.children[key]
	if !ok {
		child = v.make()
		v.children[key] = child
		v.keys[key] = append([]string(nil), values...)
	}
	return child
}

// sortedKeys returns child keys in deterministic order.
func (v *vec[T]) sortedKeys() []string {
	keys := make([]string, 0, len(v.children))
	for k := range v.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// labelPairs flattens a child's label names and values into the
// alternating form ExpoWriter.Sample takes.
func (v *vec[T]) labelPairs(key string) []string {
	values := v.keys[key]
	pairs := make([]string, 0, 2*len(values))
	for i, name := range v.labels {
		pairs = append(pairs, name, values[i])
	}
	return pairs
}

// CounterVec is a counter family partitioned by label values.
type CounterVec struct {
	vec[*Counter]
}

// With returns the child counter for the given label values, creating it
// on first use.
func (c *CounterVec) With(values ...string) *Counter {
	if c == nil {
		return nil
	}
	return c.with(values...)
}

// HistogramVec is a histogram family partitioned by label values.
type HistogramVec struct {
	vec[*Histogram]
}

// With returns the child histogram for the given label values, creating it
// on first use.
func (h *HistogramVec) With(values ...string) *Histogram {
	if h == nil {
		return nil
	}
	return h.with(values...)
}

// Registry holds instruments and scrape-time collectors and renders them
// all in Prometheus text exposition format. Instruments register exactly
// once by name; requesting a registered name again panics (a config error,
// not a runtime condition).
type Registry struct {
	mu         sync.Mutex
	names      map[string]bool
	exposers   []func(*ExpoWriter)
	collectors []func(*ExpoWriter)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: map[string]bool{}}
}

func (r *Registry) register(name string, expose func(*ExpoWriter)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names[name] {
		panic("telemetry: duplicate metric " + name)
	}
	r.names[name] = true
	r.exposers = append(r.exposers, expose)
}

// Counter registers and returns a counter. Nil registry → nil counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	c := &Counter{}
	r.register(name, func(x *ExpoWriter) {
		x.Family(name, "counter", help)
		x.Sample(name, float64(c.Value()))
	})
	return c
}

// CounterVec registers and returns a label-partitioned counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	c := &CounterVec{}
	c.labels = labels
	c.children = map[string]*Counter{}
	c.keys = map[string][]string{}
	c.make = func() *Counter { return &Counter{} }
	r.register(name, func(x *ExpoWriter) {
		c.mu.Lock()
		defer c.mu.Unlock()
		x.Family(name, "counter", help)
		for _, k := range c.sortedKeys() {
			x.Sample(name, float64(c.children[k].Value()), c.labelPairs(k)...)
		}
	})
	return c
}

// Gauge registers a callback gauge evaluated at scrape time.
func (r *Registry) Gauge(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.register(name, func(x *ExpoWriter) {
		x.Family(name, "gauge", help)
		x.Sample(name, fn())
	})
}

// Histogram registers and returns a histogram with the given bucket upper
// bounds (nil → LatencyBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	h := NewHistogram(name, bounds)
	r.register(name, func(x *ExpoWriter) {
		x.Family(name, "histogram", help)
		h.expose(x, nil)
	})
	return h
}

// HistogramVec registers and returns a label-partitioned histogram family.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	h := &HistogramVec{}
	h.labels = labels
	h.children = map[string]*Histogram{}
	h.keys = map[string][]string{}
	h.make = func() *Histogram { return NewHistogram(name, bounds) }
	r.register(name, func(x *ExpoWriter) {
		h.mu.Lock()
		defer h.mu.Unlock()
		x.Family(name, "histogram", help)
		for _, k := range h.sortedKeys() {
			h.children[k].expose(x, h.labelPairs(k))
		}
	})
	return h
}

// Collect registers a scrape-time collector: fn runs on every
// WritePrometheus call and emits whole families through the writer. It is
// for families read from state some component keeps anyway — the cache
// tiers' reports, the cluster's circuit breakers, the Go runtime, the
// flight recorder — so that no value is counted twice; a count the
// process keeps for itself is an instrument.
func (r *Registry) Collect(fn func(*ExpoWriter)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, fn)
}

// WritePrometheus renders every registered instrument and collector in
// Prometheus text exposition format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	var exposers, collectors []func(*ExpoWriter)
	exposers = append(exposers, r.exposers...)
	collectors = append(collectors, r.collectors...)
	r.mu.Unlock()
	x := &ExpoWriter{w: w}
	for _, e := range exposers {
		e(x)
	}
	for _, c := range collectors {
		c(x)
	}
	return x.err
}

// ExpoWriter writes Prometheus text exposition lines. The first write
// error sticks and suppresses the rest, so callers check once at the end.
type ExpoWriter struct {
	w   io.Writer
	err error
}

// Family writes the # HELP / # TYPE header for a metric family. typ is
// "counter", "gauge" or "histogram".
func (x *ExpoWriter) Family(name, typ, help string) {
	if x.err != nil {
		return
	}
	_, x.err = fmt.Fprintf(x.w, "# HELP %s %s\n# TYPE %s %s\n", name, escapeHelp(help), name, typ)
}

// Sample writes one sample line. labelPairs alternates name, value.
func (x *ExpoWriter) Sample(name string, value float64, labelPairs ...string) {
	if x.err != nil {
		return
	}
	var sb strings.Builder
	sb.WriteString(name)
	if len(labelPairs) > 0 {
		sb.WriteByte('{')
		for i := 0; i+1 < len(labelPairs); i += 2 {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(labelPairs[i])
			sb.WriteString(`="`)
			sb.WriteString(escapeLabel(labelPairs[i+1]))
			sb.WriteByte('"')
		}
		sb.WriteByte('}')
	}
	sb.WriteByte(' ')
	sb.WriteString(formatValue(value))
	sb.WriteByte('\n')
	_, x.err = io.WriteString(x.w, sb.String())
}

func escapeLabel(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

func escapeHelp(s string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}

// formatValue renders a sample value the way Prometheus expects: integers
// without an exponent, everything else in shortest round-trip form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// formatBound renders a histogram le bound.
func formatBound(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
