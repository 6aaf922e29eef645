package sdf3x

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sync"

	"kiter/internal/csdf"
)

// This file is the only graph JSON decoder: a single-pass recursive-descent
// reader for the fixed schema AppendJSON writes and of the request envelope
// around it, building csdf.Graph directly. The pooled decoder owns the
// bytes it decodes: it reads its input into a buffer it keeps, and nothing
// it returns (graph, envelope, error) aliases that buffer. It accepts and
// rejects exactly what encoding/json did when it decoded into the schema's
// struct shape by reflection (ReadJSONReflect, kept as the tests' oracle):
//
//   - keys match a field exactly first, then by bytes.EqualFold;
//   - a repeated key decodes again into what the earlier one left, so the
//     last value wins, a null leaves a field as it was, and an array decodes
//     element-wise into the previous slice, whose elements beyond the old
//     length (but within what any earlier array wrote) are reused;
//   - int64 fields take integer literals only (no fraction, exponent or
//     overflow);
//   - a string holding a backslash or a byte ≥ 0x80 is unquoted by
//     json.Unmarshal, so escapes, surrogate pairs and the U+FFFD
//     replacement of invalid UTF-8 stay byte-for-byte the same;
//   - nothing but whitespace may follow the top-level value, and nesting
//     deeper than encoding/json's limit is a syntax error.
//
// A syntax error stops the decode; a value of the wrong type is recorded
// and skipped, like encoding/json's saved errors, so a syntax error later in
// the document still takes precedence.

// maxDepth is encoding/json's nesting limit.
const maxDepth = 10000

// Retention bounds for pooled scratch: a decoder that grew past them while
// reading an unusually large graph is dropped instead of pooled.
const (
	maxPooledItems = 1 << 10 // tasks, buffers, analyses
	maxPooledInts  = 1 << 14 // slab entries
	maxPooledBytes = 1 << 20 // input buffer
)

// span locates an int64 array in the decoder's slab: n values at off,
// followed by the cap-n stale values a repeated key may reuse.
type span struct{ off, n, cap int }

type rawTask struct {
	name      string
	durations span
}

type rawBuffer struct {
	name     string
	src, dst []byte // looked up, never kept: may alias the input
	in, out  span
	initial  int64
	capacity int64
}

// rawGraph is a graph document under construction. tasks and buffers hold every
// element an array ever wrote; the first nTasks and nBuffers are live.
type rawGraph struct {
	name     string
	tasks    []rawTask
	nTasks   int
	buffers  []rawBuffer
	nBuffers int
}

// reset empties the graph, clearing the elements it drops: past their
// length the pooled slices hold only zero values.
func (g *rawGraph) reset() {
	clear(g.tasks)
	clear(g.buffers)
	*g = rawGraph{tasks: g.tasks[:0], buffers: g.buffers[:0]}
}

// Envelope is the request wrapper an /analyze or /cluster/evaluate body
// puts around its graph: the graph under "graph", the knobs beside it.
type Envelope struct {
	Analyses   []string
	Method     string
	Capacities *bool // nil: not set
	NoCache    bool
}

// RequestError reports a request body rejected as a whole: malformed JSON,
// a top-level value that is not an object, or an envelope key that is
// unknown or has the wrong type. ReadRequest's errors other than a
// ReadError and a RequestError concern the graph.
type RequestError struct{ Err error }

func (e *RequestError) Error() string { return e.Err.Error() }
func (e *RequestError) Unwrap() error { return e.Err }

// ReadError reports that reading a request body failed; Err is the
// reader's error, such as an *http.MaxBytesError.
type ReadError struct{ Err error }

func (e *ReadError) Error() string { return "sdf3x: reading request: " + e.Err.Error() }
func (e *ReadError) Unwrap() error { return e.Err }

// syntaxError is malformed JSON at a byte offset.
type syntaxError struct {
	offset int
	msg    string
}

func (e *syntaxError) Error() string { return fmt.Sprintf("%s (offset %d)", e.msg, e.offset) }

// field name tables; the index is the field's identity.
var (
	graphFields  = []string{"name", "tasks", "buffers"}
	taskFields   = []string{"name", "durations"}
	bufferFields = []string{"name", "src", "dst", "in", "out", "initial", "capacity"}
	envFields    = []string{"graph", "analyses", "method", "capacities", "noCache"}
)

type decoder struct {
	// data is the input, read into a buffer the decoder owns and keeps
	// for its next use.
	data  []byte
	off   int
	depth int
	// err is the first type error of the value being decoded; callers
	// that decode several independent parts swap it per part.
	err  error
	slab []int64
	// bare is the top-level object read as a graph; env the last value
	// under an envelope's "graph" key.
	bare, env rawGraph
	// knobs.Analyses holds every element an array wrote, like rawGraph's
	// slices; the first nAnalyses are live.
	knobs     Envelope
	nAnalyses int
	ids       map[string]csdf.TaskID
}

var decoders = sync.Pool{New: func() any { return new(decoder) }}

// read takes a decoder from the pool and reads r to EOF into its input
// buffer. A positive sizeHint grows the buffer once to that size, up to
// the retention bound, so a body of the hinted length is read without
// another grow. On a read error the decoder is already released.
func read(r io.Reader, sizeHint int64) (*decoder, error) {
	d := decoders.Get().(*decoder)
	b := d.data[:0]
	if sizeHint > 0 {
		// One byte more, so the read that meets EOF has room.
		b = slices.Grow(b, int(min(sizeHint, maxPooledBytes))+1)
	}
	for {
		if len(b) == cap(b) {
			b = slices.Grow(b, 512)
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			d.data = b
			d.release()
			return nil, err
		}
	}
	d.data = b
	return d, nil
}

// release clears every reference into the built graph, then pools the
// scratch unless it grew past the retention bounds. Past their lengths the
// scratch slices hold only zero values (every truncation clears what it
// drops), so clearing up to the lengths is enough. The input buffer holds
// no references and is kept as it is.
func (d *decoder) release() {
	for _, n := range []int{len(d.ids), cap(d.knobs.Analyses), cap(d.bare.tasks), cap(d.bare.buffers), cap(d.env.tasks), cap(d.env.buffers)} {
		if n > maxPooledItems {
			return
		}
	}
	if cap(d.slab) > maxPooledInts || cap(d.data) > maxPooledBytes {
		return
	}
	d.bare.reset()
	d.env.reset()
	clear(d.knobs.Analyses)
	d.knobs, d.nAnalyses = Envelope{Analyses: d.knobs.Analyses[:0]}, 0
	clear(d.ids)
	d.off, d.depth, d.err, d.slab = 0, 0, nil, d.slab[:0]
	decoders.Put(d)
}

// document decodes the input as one graph document.
func (d *decoder) document() (*csdf.Facts, error) {
	err := d.graph(&d.bare)
	if err == nil {
		err = d.end()
	}
	if err == nil {
		err = d.err
	}
	if err != nil {
		return nil, fmt.Errorf("sdf3x: decoding JSON: %w", err)
	}
	return d.build(&d.bare)
}

// ReadRequest reads a request body from r to EOF and decodes it in one
// pass: either a bare graph or an envelope {"graph": …, "analyses": […],
// "method": …, "capacities": …, "noCache": …}. It returns the facts of the
// graph, which it validated, and the envelope. A "graph" key anywhere in
// the top-level object makes it an envelope, which is strict: any other key
// is a RequestError naming it. A bare graph is lenient: unknown keys are
// skipped (they must still be valid JSON). The envelope is nil for a bare
// graph. A failed read is a ReadError wrapping the reader's error.
//
// ReadRequest is the only request reader. The body is read into the pooled
// decoder's own buffer, which a positive sizeHint (a request's
// ContentLength) sizes in one grow; nothing returned aliases it, so the
// buffer goes back to the pool before ReadRequest returns. A replica that
// forwards the graph encodes it again with AppendJSON.
func ReadRequest(r io.Reader, sizeHint int64) (*csdf.Facts, *Envelope, error) {
	d, err := read(r, sizeHint)
	if err != nil {
		return nil, nil, &ReadError{err}
	}
	defer d.release()
	return d.request()
}

// request decodes the input as a request body; see ReadRequest.
func (d *decoder) request() (*csdf.Facts, *Envelope, error) {
	var envErr, graphErr, bareErr error
	// unknown is the first key an envelope does not know, kept as a token
	// so a bare graph's keys cost no error value.
	var unknown []byte
	unknownSlow := false
	noteUnknown := func(key []byte, slow bool) {
		if envErr == nil && unknown == nil {
			unknown, unknownSlow = key, slow
		}
	}
	isEnvelope := false
	var err error
	switch d.next() {
	case '{':
		err = d.object(func(key []byte, slow bool) error {
			if f := match(key, slow, graphFields); f >= 0 {
				noteUnknown(key, slow)
				return d.into(&bareErr, func() error { return d.graphField(&d.bare, f) })
			}
			switch match(key, slow, envFields) {
			case 0:
				isEnvelope = true
				d.env.reset()
				graphErr = nil
				return d.into(&graphErr, func() error { return d.graph(&d.env) })
			case 1:
				return d.into(&envErr, func() error {
					return elems(d, &d.knobs.Analyses, &d.nAnalyses, "analyses", func(s *string) error {
						return d.stringField(s, "analyses")
					})
				})
			case 2:
				return d.into(&envErr, func() error { return d.stringField(&d.knobs.Method, "method") })
			case 3:
				return d.into(&envErr, func() error { return d.boolPtrField(&d.knobs.Capacities, "capacities") })
			case 4:
				return d.into(&envErr, func() error { return d.boolField(&d.knobs.NoCache, "noCache") })
			}
			noteUnknown(key, slow)
			return d.skip()
		})
	case 'n': // a bare graph with no fields
		err = d.null()
	default:
		if err = d.mismatch("request object", ""); err == nil {
			err = d.end()
		}
		if err == nil {
			err = d.err
		}
		return nil, nil, &RequestError{err}
	}
	if err == nil {
		err = d.end()
	}
	if err != nil {
		return nil, nil, &RequestError{err}
	}
	if !isEnvelope {
		if bareErr != nil {
			return nil, nil, fmt.Errorf("sdf3x: decoding JSON: %w", bareErr)
		}
		f, err := d.build(&d.bare)
		return f, nil, err
	}
	if unknown != nil {
		envErr = fmt.Errorf("unknown field %q", text(unknown, unknownSlow))
	}
	if envErr != nil {
		return nil, nil, &RequestError{envErr}
	}
	if graphErr != nil {
		return nil, nil, fmt.Errorf("sdf3x: decoding JSON: %w", graphErr)
	}
	f, err := d.build(&d.env)
	if err != nil {
		return nil, nil, err
	}
	env := d.knobs
	env.Analyses = nil
	if d.nAnalyses > 0 {
		env.Analyses = append(env.Analyses, d.knobs.Analyses[:d.nAnalyses]...)
	}
	return f, &env, nil
}

// into runs decode with its type errors going to *slot.
func (d *decoder) into(slot *error, decode func() error) error {
	saved := d.err
	d.err = *slot
	err := decode()
	*slot, d.err = d.err, saved
	return err
}

// build resolves task names and hands the graph to csdf.Assemble, with
// every duration and rate copied into one exactly sized slab. Assemble's
// validation is the only one the graph gets: the facts it returns travel
// with the graph from here on.
func (d *decoder) build(rg *rawGraph) (*csdf.Facts, error) {
	tasks, buffers := rg.tasks[:rg.nTasks], rg.buffers[:rg.nBuffers]
	if d.ids == nil {
		d.ids = make(map[string]csdf.TaskID, len(tasks))
	}
	ids := d.ids
	n := 0
	for i := range tasks {
		t := &tasks[i]
		if _, dup := ids[t.name]; dup {
			return nil, fmt.Errorf("sdf3x: duplicate task name %q", t.name)
		}
		ids[t.name] = csdf.TaskID(i)
		n += t.durations.n
	}
	for i := range buffers {
		n += buffers[i].in.n + buffers[i].out.n
	}
	slab := make([]int64, 0, n)
	take := func(s span) []int64 {
		a := len(slab)
		slab = append(slab, d.slab[s.off:s.off+s.n]...)
		return slab[a:len(slab):len(slab)]
	}
	ts := make([]csdf.Task, len(tasks))
	for i := range tasks {
		ts[i] = csdf.Task{Name: tasks[i].name, Durations: take(tasks[i].durations)}
	}
	bs := make([]csdf.Buffer, len(buffers))
	for i := range buffers {
		b := &buffers[i]
		src, ok := ids[string(b.src)]
		if !ok {
			return nil, fmt.Errorf("sdf3x: buffer %q: unknown source %q", b.name, b.src)
		}
		dst, ok := ids[string(b.dst)]
		if !ok {
			return nil, fmt.Errorf("sdf3x: buffer %q: unknown destination %q", b.name, b.dst)
		}
		bs[i] = csdf.Buffer{
			Name: b.name, Src: src, Dst: dst,
			In: take(b.in), Out: take(b.out),
			Initial: b.initial, Capacity: max(b.capacity, 0), // a negative capacity reads as unbounded
		}
	}
	return csdf.Assemble(rg.name, ts, bs)
}

// graph decodes a graph document.
func (d *decoder) graph(g *rawGraph) error {
	switch d.next() {
	case 'n':
		return d.null()
	case '{':
		return d.object(func(key []byte, slow bool) error {
			return d.graphField(g, match(key, slow, graphFields))
		})
	}
	return d.mismatch("graph object", "")
}

func (d *decoder) graphField(g *rawGraph, f int) error {
	switch f {
	case 0:
		return d.stringField(&g.name, "name")
	case 1:
		return elems(d, &g.tasks, &g.nTasks, "tasks", d.task)
	case 2:
		return elems(d, &g.buffers, &g.nBuffers, "buffers", d.buffer)
	}
	return d.skip()
}

// elems decodes an array into *backing element by element: elements the
// array does not reach keep what an earlier array wrote there, as
// encoding/json reuses a slice's backing array, and live is set to the
// array's length. A null or an empty array drops the backing array,
// clearing its elements.
func elems[T any](d *decoder, backing *[]T, live *int, field string, elem func(*T) error) error {
	switch d.next() {
	case 'n':
		clear(*backing)
		*backing, *live = (*backing)[:0], 0
		return d.null()
	case '[':
		n := 0
		err := d.array(func() error {
			if n == len(*backing) {
				var zero T
				*backing = append(*backing, zero)
			}
			n++
			return elem(&(*backing)[n-1])
		})
		if n == 0 {
			clear(*backing)
			*backing = (*backing)[:0]
		}
		*live = n
		return err
	}
	return d.mismatch("array", field)
}

func (d *decoder) task(t *rawTask) error {
	switch d.next() {
	case 'n':
		return d.null()
	case '{':
		return d.object(func(key []byte, slow bool) error {
			switch match(key, slow, taskFields) {
			case 0:
				return d.stringField(&t.name, "name")
			case 1:
				return d.ints(&t.durations, "durations")
			}
			return d.skip()
		})
	}
	return d.mismatch("task object", "tasks")
}

func (d *decoder) buffer(b *rawBuffer) error {
	switch d.next() {
	case 'n':
		return d.null()
	case '{':
		return d.object(func(key []byte, slow bool) error {
			switch match(key, slow, bufferFields) {
			case 0:
				return d.stringField(&b.name, "name")
			case 1:
				return d.bytesField(&b.src, "src")
			case 2:
				return d.bytesField(&b.dst, "dst")
			case 3:
				return d.ints(&b.in, "in")
			case 4:
				return d.ints(&b.out, "out")
			case 5:
				return d.intField(&b.initial, "initial")
			case 6:
				return d.intField(&b.capacity, "capacity")
			}
			return d.skip()
		})
	}
	return d.mismatch("buffer object", "buffers")
}

// ints decodes an []int64 into the slab. Values a null element keeps, and
// the stale tail, come from the span the field held before.
func (d *decoder) ints(s *span, field string) error {
	switch d.next() {
	case 'n':
		*s = span{}
		return d.null()
	case '[':
		old, start, n := *s, len(d.slab), 0
		err := d.array(func() error {
			var v int64
			if n < old.cap {
				v = d.slab[old.off+n]
			}
			err := d.intField(&v, field)
			d.slab = append(d.slab, v)
			n++
			return err
		})
		if n == 0 {
			*s = span{}
			return err
		}
		if n < old.cap {
			d.slab = append(d.slab, d.slab[old.off+n:old.off+old.cap]...)
		}
		*s = span{off: start, n: n, cap: max(n, old.cap)}
		return err
	}
	return d.mismatch("array", field)
}

func (d *decoder) intField(v *int64, field string) error {
	switch c := d.next(); {
	case c == 'n':
		return d.null()
	case c == '-' || '0' <= c && c <= '9':
		tok, integer, err := d.number()
		if err != nil {
			return err
		}
		if n, ok := parseInt64(tok); integer && ok {
			*v = n
		} else {
			d.typeError("number "+string(tok), field, "int64")
		}
		return nil
	}
	return d.mismatch("int64", field)
}

// parseInt64 parses an integer literal the number grammar has accepted,
// reporting false on overflow.
func parseInt64(tok []byte) (int64, bool) {
	neg := tok[0] == '-'
	if neg {
		tok = tok[1:]
	}
	if len(tok) > 19 { // 19 digits always fit a uint64
		return 0, false
	}
	var u uint64
	for _, c := range tok {
		u = u*10 + uint64(c-'0')
	}
	if neg {
		if u > 1<<63 {
			return 0, false
		}
		return int64(-u), true
	}
	if u > 1<<63-1 {
		return 0, false
	}
	return int64(u), true
}

func (d *decoder) stringField(v *string, field string) error {
	switch d.next() {
	case 'n':
		return d.null()
	case '"':
		tok, slow, err := d.str()
		if err == nil {
			*v = text(tok, slow)
		}
		return err
	}
	return d.mismatch("string", field)
}

// bytesField decodes a string without allocating unless it needs
// unquoting; the result may alias the input.
func (d *decoder) bytesField(v *[]byte, field string) error {
	switch d.next() {
	case 'n':
		return d.null()
	case '"':
		tok, slow, err := d.str()
		if err == nil {
			if slow {
				*v = []byte(text(tok, slow))
			} else {
				*v = tok[1 : len(tok)-1]
			}
		}
		return err
	}
	return d.mismatch("string", field)
}

func (d *decoder) boolField(v *bool, field string) error {
	switch d.next() {
	case 'n':
		return d.null()
	case 't', 'f':
		b, err := d.boolean()
		if err == nil {
			*v = b
		}
		return err
	}
	return d.mismatch("bool", field)
}

// boolPtrField decodes a *bool: null sets it to nil.
func (d *decoder) boolPtrField(v **bool, field string) error {
	switch d.next() {
	case 'n':
		*v = nil
		return d.null()
	case 't', 'f':
		b, err := d.boolean()
		if err == nil {
			*v = &b
		}
		return err
	}
	return d.mismatch("bool", field)
}

// mismatch records a type error for the value at the cursor and skips it.
func (d *decoder) mismatch(want, field string) error {
	kind := "value"
	switch c := d.next(); {
	case c == '{':
		kind = "object"
	case c == '[':
		kind = "array"
	case c == '"':
		kind = "string"
	case c == 't' || c == 'f':
		kind = "bool"
	case c == '-' || '0' <= c && c <= '9':
		kind = "number"
	}
	if err := d.skip(); err != nil {
		return err
	}
	d.typeError(kind, field, want)
	return nil
}

func (d *decoder) typeError(value, field, want string) {
	if d.err != nil {
		return
	}
	if field == "" {
		d.err = fmt.Errorf("cannot unmarshal %s into %s", value, want)
		return
	}
	d.err = fmt.Errorf("cannot unmarshal %s into field %q of type %s", value, field, want)
}

// match returns the index of the field the key names, or -1.
func match(key []byte, slow bool, fields []string) int {
	var k []byte
	if slow {
		k = []byte(text(key, slow))
	} else {
		k = key[1 : len(key)-1]
	}
	for i, f := range fields {
		if string(k) == f {
			return i
		}
	}
	for i, f := range fields {
		if bytes.EqualFold(k, []byte(f)) {
			return i
		}
	}
	return -1
}

// text returns a string token's value. A plain token is copied; one that
// needs unquoting goes through json.Unmarshal.
func text(tok []byte, slow bool) string {
	if !slow {
		return string(tok[1 : len(tok)-1])
	}
	var s string
	// str has checked the token against the same grammar, so this cannot
	// fail.
	_ = json.Unmarshal(tok, &s)
	return s
}

// Scanning. next skips whitespace and returns the byte at the cursor, 0 at
// the end of the input.

func (d *decoder) next() byte {
	for d.off < len(d.data) {
		switch c := d.data[d.off]; c {
		case ' ', '\t', '\n', '\r':
			d.off++
		default:
			return c
		}
	}
	return 0
}

// end checks that only whitespace follows the top-level value.
func (d *decoder) end() error {
	if d.next() != 0 || d.off < len(d.data) {
		return d.syntax("after top-level value")
	}
	return nil
}

func (d *decoder) syntax(context string) error {
	if d.off >= len(d.data) {
		return &syntaxError{offset: d.off, msg: "unexpected end of JSON input"}
	}
	return &syntaxError{offset: d.off, msg: fmt.Sprintf("invalid character %q %s", d.data[d.off], context)}
}

// skip validates and steps over one value.
func (d *decoder) skip() error {
	switch c := d.next(); {
	case c == '{':
		return d.object(func([]byte, bool) error { return d.skip() })
	case c == '[':
		return d.array(d.skip)
	case c == '"':
		_, _, err := d.str()
		return err
	case c == 't' || c == 'f':
		_, err := d.boolean()
		return err
	case c == 'n':
		return d.null()
	case c == '-' || '0' <= c && c <= '9':
		_, _, err := d.number()
		return err
	}
	return d.syntax("looking for beginning of value")
}

// object steps into the object at the cursor and calls field with each
// key token, the cursor on its value; field must consume the value.
func (d *decoder) object(field func(key []byte, slow bool) error) error {
	d.off++
	if d.depth++; d.depth > maxDepth {
		return &syntaxError{offset: d.off, msg: "exceeded max depth"}
	}
	if d.next() == '}' {
		d.off++
		d.depth--
		return nil
	}
	for {
		if d.next() != '"' {
			return d.syntax("looking for beginning of object key string")
		}
		key, slow, err := d.str()
		if err != nil {
			return err
		}
		if d.next() != ':' {
			return d.syntax("after object key")
		}
		d.off++
		if err := field(key, slow); err != nil {
			return err
		}
		switch d.next() {
		case ',':
			d.off++
		case '}':
			d.off++
			d.depth--
			return nil
		default:
			return d.syntax("after object key:value pair")
		}
	}
}

// array steps into the array at the cursor and calls elem with the cursor
// on each element; elem must consume it.
func (d *decoder) array(elem func() error) error {
	d.off++
	if d.depth++; d.depth > maxDepth {
		return &syntaxError{offset: d.off, msg: "exceeded max depth"}
	}
	if d.next() == ']' {
		d.off++
		d.depth--
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		switch d.next() {
		case ',':
			d.off++
		case ']':
			d.off++
			d.depth--
			return nil
		default:
			return d.syntax("after array element")
		}
	}
}

// str scans the string token at the cursor and returns it with its
// quotes. slow reports a backslash or a byte ≥ 0x80, whose value text
// leaves to json.Unmarshal.
func (d *decoder) str() (tok []byte, slow bool, err error) {
	start, i := d.off, d.off+1
	for i < len(d.data) {
		c := d.data[i]
		if plain[c] {
			i++
			continue
		}
		switch {
		case c == '"':
			d.off = i + 1
			return d.data[start:d.off], slow, nil
		case c == '\\':
			slow = true
			i++
			if i >= len(d.data) {
				break
			}
			switch d.data[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i++
			case 'u':
				i++
				for j := 0; j < 4; j++ {
					if i >= len(d.data) {
						break
					}
					if !isHex(d.data[i]) {
						d.off = i
						return nil, false, d.syntax("in \\u hexadecimal character escape")
					}
					i++
				}
			default:
				d.off = i
				return nil, false, d.syntax("in string escape code")
			}
		case c < 0x20:
			d.off = i
			return nil, false, d.syntax("in string literal")
		default: // ≥ 0x80
			slow = true
			i++
		}
	}
	d.off = len(d.data)
	return nil, false, d.syntax("")
}

// plain marks the bytes a string token holds as themselves: printable
// ASCII other than the quote and the backslash.
var plain = func() (t [256]bool) {
	for c := 0x20; c < 0x80; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// number scans a number token; integer reports no fraction or exponent.
func (d *decoder) number() (tok []byte, integer bool, err error) {
	start, i := d.off, d.off
	if d.data[i] == '-' {
		i++
	}
	if i < len(d.data) && d.data[i] == '0' {
		i++
	} else if j := digits(d.data, i); j > i {
		i = j
	} else {
		return d.badNumber(i)
	}
	integer = true
	if i < len(d.data) && d.data[i] == '.' {
		integer = false
		j := digits(d.data, i+1)
		if j == i+1 {
			return d.badNumber(j)
		}
		i = j
	}
	if i < len(d.data) && (d.data[i] == 'e' || d.data[i] == 'E') {
		integer = false
		i++
		if i < len(d.data) && (d.data[i] == '+' || d.data[i] == '-') {
			i++
		}
		j := digits(d.data, i)
		if j == i {
			return d.badNumber(j)
		}
		i = j
	}
	d.off = i
	return d.data[start:i], integer, nil
}

// digits returns the index after the run of digits at data[i:].
func digits(data []byte, i int) int {
	for i < len(data) && '0' <= data[i] && data[i] <= '9' {
		i++
	}
	return i
}

func (d *decoder) badNumber(at int) ([]byte, bool, error) {
	d.off = at
	return nil, false, d.syntax("in numeric literal")
}

func (d *decoder) boolean() (bool, error) {
	if d.data[d.off] == 't' {
		return true, d.literal("true")
	}
	return false, d.literal("false")
}

func (d *decoder) null() error { return d.literal("null") }

func (d *decoder) literal(lit string) error {
	for i := 0; i < len(lit); i++ {
		if d.off >= len(d.data) || d.data[d.off] != lit[i] {
			return d.syntax("in literal " + lit)
		}
		d.off++
	}
	return nil
}
