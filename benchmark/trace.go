package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public function, recorded by the
// benchmark's own code around the call.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for a request's root span
	Req    uint64 `json:"req"`    // request sequence number
	Name   string `json:"name"`
	Start  int64  `json:"startNs"` // since the tracer started
	End    int64  `json:"endNs"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing and never reads the clock, which is the untraced replay.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span: it reserves the span's ID (so children can name it
// as their parent before it ends) and reads the start time.
func (t *tracer) begin() (int64, time.Time) {
	if t == nil {
		return 0, time.Time{}
	}
	t.mu.Lock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id})
	t.mu.Unlock()
	return id, time.Now()
}

// end closes span id, opened at start, under parent.
func (t *tracer) end(id, parent int64, req uint64, name string, start time.Time) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id-1] = span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(now.Sub(t.t0))}
	t.mu.Unlock()
}

// add records an already-timed span.
func (t *tracer) add(parent int64, req uint64, name string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	id, _ := t.begin()
	t.mu.Lock()
	s := int64(start.Sub(t.t0))
	t.spans[id-1] = span{ID: id, Parent: parent, Req: req, Name: name, Start: s, End: s + int64(d)}
	t.mu.Unlock()
}

// write stores the spans as JSON, one span per line, without holding the
// whole document in memory.
func (t *tracer) write(path, workload string, seed int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"workload\":%q,\"seed\":%d,\"spans\":[", workload, seed)
	for i, s := range t.spans {
		line, err := json.Marshal(s)
		if err != nil {
			return err
		}
		if i > 0 {
			w.WriteByte(',')
		}
		w.WriteString("\n")
		w.Write(line)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that the union of its children's intervals covers.
func selfTimes(spans []span) map[int64]time.Duration {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered returns the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, children []span) time.Duration {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if lo < hi {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] <= curHi:
			curHi = max(curHi, v[1])
		default:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return time.Duration(total)
}

// spanKey carries the enclosing span through a context, so the timing
// cache backend can hang its spans under the Submit (or sweep scenario)
// that caused them.
type spanKey struct{}

type spanRef struct {
	id  int64
	req uint64
}

func withSpan(ctx context.Context, id int64, req uint64) context.Context {
	return context.WithValue(ctx, spanKey{}, spanRef{id, req})
}

func spanFrom(ctx context.Context) (spanRef, bool) {
	r, ok := ctx.Value(spanKey{}).(spanRef)
	return r, ok
}
