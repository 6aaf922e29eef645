package sdf3x

import (
	"bytes"
	"encoding/json"
	"fmt"

	"kiter/internal/csdf"
)

// ReadJSONReflect is the reflection decoder the single-pass one replaced,
// kept as FuzzReadJSON's oracle: json.Unmarshal into jsonGraph (which
// rejects trailing data), then the same build and Validate.
func ReadJSONReflect(data []byte) (*csdf.Graph, error) {
	var jg jsonGraph
	if err := json.Unmarshal(data, &jg); err != nil {
		return nil, fmt.Errorf("sdf3x: decoding JSON: %w", err)
	}
	g := csdf.NewGraph(jg.Name)
	ids := map[string]csdf.TaskID{}
	for _, t := range jg.Tasks {
		if _, dup := ids[t.Name]; dup {
			return nil, fmt.Errorf("sdf3x: duplicate task name %q", t.Name)
		}
		ids[t.Name] = g.AddTask(t.Name, t.Durations)
	}
	for _, b := range jg.Buffers {
		src, ok := ids[b.Src]
		if !ok {
			return nil, fmt.Errorf("sdf3x: buffer %q: unknown source %q", b.Name, b.Src)
		}
		dst, ok := ids[b.Dst]
		if !ok {
			return nil, fmt.Errorf("sdf3x: buffer %q: unknown destination %q", b.Name, b.Dst)
		}
		id := g.AddBuffer(b.Name, src, dst, b.In, b.Out, b.Initial)
		if b.Capacity > 0 {
			g.SetCapacity(id, b.Capacity)
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// jsonGraph is the graph document's struct shape: ReadJSONReflect decodes
// into it, and WriteJSONReflect encodes it.
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

// WriteJSONReflect is the reflection writer AppendJSON replaced, kept as
// FuzzAppendJSON's oracle: a json.Encoder over g's jsonGraph, indented by
// two spaces when indent is set, the output ending in a newline.
func WriteJSONReflect(g *csdf.Graph, indent bool) []byte {
	names := resolveNames(g)
	defer names.release()
	jg := jsonGraph{Name: g.Name}
	for _, t := range g.Tasks() {
		jg.Tasks = append(jg.Tasks, jsonTask{Name: names.of[t.ID], Durations: t.Durations})
	}
	for _, b := range g.Buffers() {
		jg.Buffers = append(jg.Buffers, jsonBuffer{
			Name: b.Name, Src: names.of[b.Src], Dst: names.of[b.Dst],
			In: b.In, Out: b.Out, Initial: b.Initial, Capacity: b.Capacity,
		})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if indent {
		enc.SetIndent("", "  ")
	}
	if err := enc.Encode(jg); err != nil {
		panic(err) // a graph has no value encoding/json refuses
	}
	return buf.Bytes()
}
