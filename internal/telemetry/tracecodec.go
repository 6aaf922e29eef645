package telemetry

import (
	"encoding/binary"
	"sync"
	"time"
)

// The flight recorder retains each finished trace as one string in the
// encoding below, so a retained trace is a single pointer-free object the
// garbage collector never scans, and decodes it into fresh SpanNodes on
// every read. Each span, depth first with children in order:
//
//	name                   string
//	traceID                id (roots only; empty elsewhere)
//	spanID, parentID       id
//	start                  varint ns: absolute on the root, an offset
//	                       from the parent's start below it
//	dur                    varint ns
//	attrs                  uvarint count, then per attr: key string,
//	                       kind byte, then a string or a varint
//	events                 uvarint count, then per event: name string,
//	                       at as a varint ns offset from the span's
//	                       start, attrs as above
//	children               uvarint count, then each child span
//
// A string is a uvarint length and its bytes. An id is a uvarint header
// h: lowercase hex of even length — every minted or parsed trace and span
// ID — is packed to its h>>1 raw bytes when h&1 is set, anything else is
// stored as a string of length h>>1.

// encodeBufs recycles the scratch the encoder appends into; the retained
// string is copied out at its exact length.
var encodeBufs = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledEncodeBuf keeps one huge trace from pinning its scratch.
const maxPooledEncodeBuf = 64 << 10

// encodeTrace encodes the tree rooted at root, taking each span's lock
// while it reads that span. Spans still open report their duration up to
// now.
func encodeTrace(root *Span, now time.Time) string {
	bp := encodeBufs.Get().(*[]byte)
	b := appendSpan((*bp)[:0], root, 0, now)
	out := string(b)
	if cap(b) <= maxPooledEncodeBuf {
		*bp = b
		encodeBufs.Put(bp)
	}
	return out
}

func appendSpan(b []byte, s *Span, parentStart int64, now time.Time) []byte {
	s.mu.Lock()
	b = appendString(b, s.name)
	traceID := ""
	if s.root {
		traceID = s.sc.TraceID
	}
	b = appendID(b, traceID)
	b = appendID(b, s.sc.SpanID)
	b = appendID(b, s.parentID)
	start := s.start.UnixNano()
	b = binary.AppendVarint(b, start-parentStart)
	d := s.dur
	if !s.ended {
		d = now.Sub(s.start)
	}
	b = binary.AppendVarint(b, int64(d))
	b = appendAttrs(b, s.attrs)
	b = binary.AppendUvarint(b, uint64(len(s.events)))
	for _, ev := range s.events {
		b = appendString(b, ev.name)
		b = binary.AppendVarint(b, ev.at.UnixNano()-start)
		b = appendAttrs(b, ev.attrs)
	}
	// Children are only ever appended, so the entries up to this length
	// stay as read after the lock is released.
	children := s.children
	s.mu.Unlock()
	b = binary.AppendUvarint(b, uint64(len(children)))
	for _, c := range children {
		if c.span != nil {
			b = appendSpan(b, c.span, start, now)
			continue
		}
		b = appendString(b, c.name)
		b = append(b, 0, 0, 0) // no trace, span or parent ID
		b = binary.AppendVarint(b, c.start.UnixNano()-start)
		b = binary.AppendVarint(b, int64(c.dur))
		b = append(b, 0, 0, 0) // no attrs, events or children
	}
	return b
}

func appendAttrs(b []byte, attrs []attr) []byte {
	b = binary.AppendUvarint(b, uint64(len(attrs)))
	for _, a := range attrs {
		b = appendString(b, a.key)
		b = append(b, byte(a.kind))
		if a.kind == kindString {
			b = appendString(b, a.str)
		} else {
			b = binary.AppendVarint(b, a.num)
		}
	}
	return b
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendID(b []byte, id string) []byte {
	if id == "" || len(id)%2 != 0 || !isHex(id) {
		b = binary.AppendUvarint(b, uint64(len(id))<<1)
		return append(b, id...)
	}
	b = binary.AppendUvarint(b, uint64(len(id)/2)<<1|1)
	for i := 0; i < len(id); i += 2 {
		b = append(b, unhex(id[i])<<4|unhex(id[i+1]))
	}
	return b
}

// unhex is one lowercase hex digit's value; isHex vetted it.
func unhex(c byte) byte {
	if c >= 'a' {
		return c - 'a' + 10
	}
	return c - '0'
}

// traceDecoder reads one encoded trace. The encoding is produced in this
// process by encodeTrace, so it is trusted: a malformed one is a bug.
// Decoded strings are substrings of the encoding and allocate nothing.
type traceDecoder struct {
	s string
	i int
}

// decodeTrace renders an encoded trace as a fresh SpanNode tree.
func decodeTrace(enc string) *SpanNode {
	d := traceDecoder{s: enc}
	return d.span(0)
}

func (d *traceDecoder) span(parentStart int64) *SpanNode {
	n := &SpanNode{Name: d.string(), TraceID: d.id(), SpanID: d.id(), ParentID: d.id()}
	n.StartUnixNano = parentStart + d.varint()
	n.DurMS = float64(d.varint()) / float64(time.Millisecond)
	n.Attrs = d.attrs()
	if k := d.uvarint(); k > 0 {
		n.Events = make([]SpanEvent, k)
		for i := range n.Events {
			ev := &n.Events[i]
			ev.Name = d.string()
			ev.AtUnixNano = n.StartUnixNano + d.varint()
			ev.Attrs = d.attrs()
		}
	}
	if k := d.uvarint(); k > 0 {
		n.Children = make([]*SpanNode, k)
		for i := range n.Children {
			n.Children[i] = d.span(n.StartUnixNano)
		}
	}
	return n
}

func (d *traceDecoder) attrs() map[string]any {
	k := d.uvarint()
	if k == 0 {
		return nil
	}
	m := make(map[string]any, k)
	for ; k > 0; k-- {
		key := d.string()
		kind := attrKind(d.s[d.i])
		d.i++
		a := attr{kind: kind}
		if kind == kindString {
			a.str = d.string()
		} else {
			a.num = d.varint()
		}
		m[key] = a.value()
	}
	return m
}

func (d *traceDecoder) uvarint() uint64 {
	var x uint64
	for shift := 0; ; shift += 7 {
		c := d.s[d.i]
		d.i++
		x |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return x
		}
	}
}

func (d *traceDecoder) varint() int64 {
	u := d.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (d *traceDecoder) string() string {
	n := int(d.uvarint())
	s := d.s[d.i : d.i+n]
	d.i += n
	return s
}

func (d *traceDecoder) id() string {
	h := d.uvarint()
	n := int(h >> 1)
	raw := d.s[d.i : d.i+n]
	d.i += n
	if h&1 == 0 {
		return raw
	}
	const digits = "0123456789abcdef"
	out := make([]byte, 2*n)
	for i := 0; i < n; i++ {
		out[2*i], out[2*i+1] = digits[raw[i]>>4], digits[raw[i]&0x0f]
	}
	return string(out)
}
