package sdf3x

import (
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
