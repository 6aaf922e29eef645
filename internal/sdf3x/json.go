// Package sdf3x reads and writes CSDF graphs in two interchange formats: a
// compact JSON format native to this repository, and an SDF3-flavoured XML
// dialect compatible in shape with the benchmark format of Stuijk et al.'s
// SDF3 tool [15], which the paper's experiments are distributed in.
package sdf3x

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"kiter/internal/csdf"
)

// jsonGraph is the on-disk JSON shape WriteJSON encodes; decode.go reads
// the same shape without reflection.
type jsonGraph struct {
	Name    string       `json:"name"`
	Tasks   []jsonTask   `json:"tasks"`
	Buffers []jsonBuffer `json:"buffers"`
}

type jsonTask struct {
	Name      string  `json:"name"`
	Durations []int64 `json:"durations"`
}

type jsonBuffer struct {
	Name     string  `json:"name,omitempty"`
	Src      string  `json:"src"`
	Dst      string  `json:"dst"`
	In       []int64 `json:"in"`
	Out      []int64 `json:"out"`
	Initial  int64   `json:"initial"`
	Capacity int64   `json:"capacity,omitempty"`
}

// WriteJSON marshals g, indented for reading. Task references use names,
// so every task must have a unique non-empty name; unnamed tasks are
// emitted as "tN".
func WriteJSON(w io.Writer, g *csdf.Graph) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(toJSON(g))
}

// WriteCompactJSON marshals g like WriteJSON, without indentation.
func WriteCompactJSON(w io.Writer, g *csdf.Graph) error {
	return json.NewEncoder(w).Encode(toJSON(g))
}

func toJSON(g *csdf.Graph) jsonGraph {
	names := taskNames(g)
	jg := jsonGraph{Name: g.Name}
	for _, t := range g.Tasks() {
		jg.Tasks = append(jg.Tasks, jsonTask{Name: names[t.ID], Durations: t.Durations})
	}
	for _, b := range g.Buffers() {
		jg.Buffers = append(jg.Buffers, jsonBuffer{
			Name: b.Name, Src: names[b.Src], Dst: names[b.Dst],
			In: b.In, Out: b.Out, Initial: b.Initial, Capacity: b.Capacity,
		})
	}
	return jg
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

func taskNames(g *csdf.Graph) []string {
	names := make([]string, g.NumTasks())
	used := map[string]bool{}
	for _, t := range g.Tasks() {
		n := t.Name
		if n == "" || used[n] {
			n = fmt.Sprintf("t%d", t.ID)
		}
		used[n] = true
		names[t.ID] = n
	}
	return names
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
