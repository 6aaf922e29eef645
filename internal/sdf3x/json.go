// Package sdf3x reads and writes CSDF graphs in two interchange formats: a
// compact JSON format native to this repository, and an SDF3-flavoured XML
// dialect compatible in shape with the benchmark format of Stuijk et al.'s
// SDF3 tool [15], which the paper's experiments are distributed in.
//
// JSON has one writer and one reader. AppendJSON writes a graph without
// reflection or allocation; WriteJSON, WriteCompactJSON and a cluster
// forward's body are its bytes. ReadRequest (and ReadJSON, ReadFacts)
// decode in one pass into a pooled buffer that nothing returned aliases.
package sdf3x

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"kiter/internal/csdf"
	"kiter/internal/jsonw"
)

// AppendJSON appends g to b in the repository's JSON format, compact, and
// returns the extended buffer. The bytes are what encoding/json writes for
// the document {"name", "tasks": [{"name", "durations"}], "buffers":
// [{"name" (omitted when empty), "src", "dst", "in", "out", "initial",
// "capacity" (omitted when zero)}]}, with null for an empty task or buffer
// list. Task references use names, so a task without a name, or with one
// an earlier task took, is written as "tN" (N its ID), or "tN_K" should a
// task already be called "tN". AppendJSON allocates nothing once b has
// room, except for such a renamed task.
func AppendJSON(b []byte, g *csdf.Graph) []byte {
	names := resolveNames(g)
	defer names.release()
	b = jsonw.String(jsonw.Key(append(b, '{'), "name"), g.Name)
	b = jsonw.Key(b, "tasks")
	if g.NumTasks() == 0 {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, t := range g.Tasks() {
			if i > 0 {
				b = append(b, ',')
			}
			b = jsonw.String(jsonw.Key(append(b, '{'), "name"), names.of[i])
			b = append(jsonw.Ints(jsonw.Key(b, "durations"), t.Durations), '}')
		}
		b = append(b, ']')
	}
	b = jsonw.Key(b, "buffers")
	if g.NumBuffers() == 0 {
		return append(b, "null}"...)
	}
	b = append(b, '[')
	for i, bf := range g.Buffers() {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '{')
		if bf.Name != "" {
			b = jsonw.String(jsonw.Key(b, "name"), bf.Name)
		}
		b = jsonw.String(jsonw.Key(b, "src"), names.of[bf.Src])
		b = jsonw.String(jsonw.Key(b, "dst"), names.of[bf.Dst])
		b = jsonw.Ints(jsonw.Key(b, "in"), bf.In)
		b = jsonw.Ints(jsonw.Key(b, "out"), bf.Out)
		b = jsonw.Int(jsonw.Key(b, "initial"), bf.Initial)
		if bf.Capacity != 0 {
			b = jsonw.Int(jsonw.Key(b, "capacity"), bf.Capacity)
		}
		b = append(b, '}')
	}
	return append(b, "]}"...)
}

// WriteJSON writes g as AppendJSON does, indented for reading, and a
// newline.
func WriteJSON(w io.Writer, g *csdf.Graph) error {
	var buf bytes.Buffer
	if err := json.Indent(&buf, AppendJSON(nil, g), "", "  "); err != nil {
		return err
	}
	buf.WriteByte('\n')
	_, err := buf.WriteTo(w)
	return err
}

// WriteCompactJSON writes g as AppendJSON does, and a newline.
func WriteCompactJSON(w io.Writer, g *csdf.Graph) error {
	_, err := w.Write(append(AppendJSON(nil, g), '\n'))
	return err
}

// ReadJSON reads a graph document to the end of r, decodes and validates
// it. Anything but whitespace after the graph is an error.
func ReadJSON(r io.Reader) (*csdf.Graph, error) {
	f, err := ReadFacts(r)
	return f.Graph(), err
}

// ReadFacts is ReadJSON returning the facts of the graph it validated,
// for callers that go on to analyze it.
func ReadFacts(r io.Reader) (*csdf.Facts, error) {
	d, err := read(r, 0)
	if err != nil {
		return nil, fmt.Errorf("sdf3x: reading JSON: %w", err)
	}
	defer d.release()
	return d.document()
}

// taskNames holds the name each task of a graph is written under, and
// the set of names taken; the writers take one from namePool.
type taskNames struct {
	of   []string
	used map[string]bool
}

var namePool = sync.Pool{New: func() any { return &taskNames{used: map[string]bool{}} }}

// resolveNames names g's tasks for writing: each keeps its own name unless
// it has none or an earlier task took it, and is then "tN", N its ID, with
// a "_K" suffix should a named task already be called that. The caller
// hands the result back with release.
func resolveNames(g *csdf.Graph) *taskNames {
	n := namePool.Get().(*taskNames)
	for _, t := range g.Tasks() {
		name := t.Name
		for k := 0; name == "" || n.used[name]; k++ {
			name = fmt.Sprintf("t%d", t.ID)
			if k > 0 {
				name = fmt.Sprintf("t%d_%d", t.ID, k)
			}
		}
		n.used[name] = true
		n.of = append(n.of, name)
	}
	return n
}

// release pools n unless it grew past the decoder's retention bound.
func (n *taskNames) release() {
	if len(n.of) > maxPooledItems {
		return
	}
	clear(n.of)
	n.of = n.of[:0]
	clear(n.used)
	namePool.Put(n)
}

// ReadFile loads and validates a graph, dispatching on the file extension
// (.json, .xml), and returns its facts.
func ReadFile(path string) (*csdf.Facts, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	switch strings.ToLower(filepath.Ext(path)) {
	case ".json":
		return ReadFacts(f)
	case ".xml":
		return readXML(f)
	default:
		return nil, fmt.Errorf("sdf3x: unsupported extension %q (want .json or .xml)", filepath.Ext(path))
	}
}

// WriteFile saves a graph, dispatching on the file extension.
func WriteFile(path string, g *csdf.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	switch strings.ToLower(filepath.Ext(path)) {
	case ".json":
		return WriteJSON(f, g)
	case ".xml":
		return WriteXML(f, g)
	default:
		return fmt.Errorf("sdf3x: unsupported extension %q (want .json or .xml)", filepath.Ext(path))
	}
}
