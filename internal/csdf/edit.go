package csdf

import (
	"fmt"
	"slices"
)

// editKind selects the graph quantity an Edit substitutes.
type editKind int

const (
	editDuration editKind = iota
	editProduction
	editConsumption
	editInitial
)

func (k editKind) String() string {
	switch k {
	case editDuration:
		return "duration"
	case editProduction:
		return "production"
	case editConsumption:
		return "consumption"
	case editInitial:
		return "initial"
	}
	return fmt.Sprintf("editKind(%d)", int(k))
}

// Edit is one parameter substitution applied by CloneWithEdits: a new value
// for a task's execution time, a buffer's cyclo-static rate, or a buffer's
// initial marking. Construct edits with SetDuration, SetProduction,
// SetConsumption and SetInitial.
type Edit struct {
	kind   editKind
	task   TaskID
	buffer BufferID
	phase  int // 1-indexed; 0 = every phase
	value  int64
}

// SetDuration substitutes task t's execution time: phase p (1-indexed) when
// p > 0, every phase when p == 0.
func SetDuration(t TaskID, p int, v int64) Edit {
	return Edit{kind: editDuration, task: t, phase: p, value: v}
}

// SetProduction substitutes buffer b's production rate inb(p) (1-indexed
// phase of the source task; p == 0 sets every phase).
func SetProduction(b BufferID, p int, v int64) Edit {
	return Edit{kind: editProduction, buffer: b, phase: p, value: v}
}

// SetConsumption substitutes buffer b's consumption rate outb(p) (1-indexed
// phase of the destination task; p == 0 sets every phase).
func SetConsumption(b BufferID, p int, v int64) Edit {
	return Edit{kind: editConsumption, buffer: b, phase: p, value: v}
}

// SetInitial substitutes buffer b's initial marking M0(b).
func SetInitial(b BufferID, v int64) Edit {
	return Edit{kind: editInitial, buffer: b, value: v}
}

// CloneWithEdits returns a copy of g with the edits applied. The clone is
// copy-on-write: task and buffer records are duplicated, but the rate and
// duration slices of untouched entries are shared with the base graph — a
// scenario family materialized from one base costs O(edits), not O(graph),
// per member. Analyses treat graphs as immutable, so the sharing is safe;
// the clone must not be grown further with AddTask/AddBuffer.
//
// Edits referencing tasks, buffers or phases outside the graph fail; value
// constraints (non-negative durations, positive total rates, …) are the
// caller's to check with Validate, so sweeps over deliberately infeasible
// points can still materialize and report per-scenario validation errors.
func (g *Graph) CloneWithEdits(edits ...Edit) (*Graph, error) {
	c := &Graph{
		Name:    g.Name,
		tasks:   slices.Clone(g.tasks),
		buffers: slices.Clone(g.buffers),
	}
	// clonedDur/clonedIn/clonedOut track which slices were already detached
	// from the base, so stacked edits on one site do not re-copy.
	clonedDur := map[TaskID]bool{}
	clonedIn := map[BufferID]bool{}
	clonedOut := map[BufferID]bool{}
	setAll := func(s []int64, phase int, v int64) error {
		if phase < 0 || phase > len(s) {
			return fmt.Errorf("csdf: edit phase %d out of range 1..%d", phase, len(s))
		}
		if phase == 0 {
			for i := range s {
				s[i] = v
			}
			return nil
		}
		s[phase-1] = v
		return nil
	}
	for _, e := range edits {
		switch e.kind {
		case editDuration:
			if int(e.task) < 0 || int(e.task) >= len(c.tasks) {
				return nil, fmt.Errorf("csdf: edit references unknown task %d", e.task)
			}
			t := &c.tasks[e.task]
			if !clonedDur[e.task] {
				t.Durations = slices.Clone(t.Durations)
				clonedDur[e.task] = true
			}
			if err := setAll(t.Durations, e.phase, e.value); err != nil {
				return nil, fmt.Errorf("%w (task %q)", err, t.Name)
			}
		case editProduction, editConsumption:
			if int(e.buffer) < 0 || int(e.buffer) >= len(c.buffers) {
				return nil, fmt.Errorf("csdf: edit references unknown buffer %d", e.buffer)
			}
			b := &c.buffers[e.buffer]
			if e.kind == editProduction {
				if !clonedIn[e.buffer] {
					b.In = slices.Clone(b.In)
					clonedIn[e.buffer] = true
				}
				if err := setAll(b.In, e.phase, e.value); err != nil {
					return nil, fmt.Errorf("%w (buffer %q production)", err, b.Name)
				}
			} else {
				if !clonedOut[e.buffer] {
					b.Out = slices.Clone(b.Out)
					clonedOut[e.buffer] = true
				}
				if err := setAll(b.Out, e.phase, e.value); err != nil {
					return nil, fmt.Errorf("%w (buffer %q consumption)", err, b.Name)
				}
			}
		case editInitial:
			if int(e.buffer) < 0 || int(e.buffer) >= len(c.buffers) {
				return nil, fmt.Errorf("csdf: edit references unknown buffer %d", e.buffer)
			}
			c.buffers[e.buffer].Initial = e.value
		default:
			return nil, fmt.Errorf("csdf: unknown edit kind %v", e.kind)
		}
	}
	return c, nil
}
