// Package csdf implements the Cyclo-Static Dataflow Graph (CSDFG) model of
// computation as defined in Section 2 of Bodin, Munier-Kordon and Dupont de
// Dinechin, "Optimal and fast throughput evaluation of CSDF" (DAC 2016).
//
// A CSDFG G = (T, B) is a directed graph whose nodes T are tasks and whose
// arcs B are unbounded FIFO buffers. Every task t is decomposed into ϕ(t)
// phases; the p-th phase has a constant duration d(tp). One iteration of t
// is the ordered execution of phases t1, …, tϕ(t). Every buffer b = (t, t′)
// carries an initial marking M0(b) ∈ ℕ, a production vector inb (inb(p)
// tokens are written at the end of each execution of phase tp) and a
// consumption vector outb (outb(p′) tokens are read before the execution of
// phase t′p′ starts).
//
// A Synchronous Dataflow Graph (SDFG) is the special case ϕ(t) = 1 for all
// tasks.
//
// The package provides the graph builder, structural validation, the
// repetition vector (consistency), capacity-constrained buffer modelling,
// statistics and DOT export. All analyses in the sibling packages consume
// this representation. Facts stand for a graph validated once, where it
// enters the program, and compute what every analysis of it needs first —
// its repetition vector and its task SCCs — once, on first use; a clone
// that edits durations or initial tokens shares them.
package csdf

import (
	"errors"
	"fmt"

	"kiter/internal/rat"
)

// TaskID identifies a task within its Graph. IDs are dense indices assigned
// in insertion order, suitable for slice-based task attributes.
type TaskID int

// BufferID identifies a buffer within its Graph, dense in insertion order.
type BufferID int

// Task is a CSDF task (actor). Tasks are created through Graph.AddTask and
// are immutable afterwards.
type Task struct {
	ID        TaskID
	Name      string
	Durations []int64 // d(tp) per phase, len = ϕ(t)
}

// Phases returns ϕ(t), the number of phases of the task.
func (t *Task) Phases() int { return len(t.Durations) }

// TotalDuration returns the sum of the phase durations of one iteration.
func (t *Task) TotalDuration() int64 {
	var s int64
	for _, d := range t.Durations {
		s += d
	}
	return s
}

// Buffer is a FIFO channel b = (Src, Dst) with cyclo-static rates.
type Buffer struct {
	ID      BufferID
	Name    string
	Src     TaskID
	Dst     TaskID
	In      []int64 // inb(p), len = ϕ(Src): tokens written at end of ⟨Src_p, ·⟩
	Out     []int64 // outb(p′), len = ϕ(Dst): tokens read at start of ⟨Dst_p′, ·⟩
	Initial int64   // M0(b) ≥ 0

	// Capacity is an optional bound on the number of tokens the buffer can
	// hold. Zero means unbounded (the model of Section 2). Analyses ignore
	// Capacity unless the graph is first rewritten with WithCapacities,
	// which encodes each bound as a reverse buffer.
	Capacity int64
}

// TotalIn returns ib = Σp inb(p), the tokens produced per Src iteration.
func (b *Buffer) TotalIn() int64 {
	var s int64
	for _, v := range b.In {
		s += v
	}
	return s
}

// TotalOut returns ob = Σp′ outb(p′), the tokens consumed per Dst iteration.
func (b *Buffer) TotalOut() int64 {
	var s int64
	for _, v := range b.Out {
		s += v
	}
	return s
}

// Graph is a Cyclo-Static Dataflow Graph. Build it with NewGraph, AddTask
// and AddBuffer, or in one call with Assemble; analyses treat it as
// immutable once built.
type Graph struct {
	Name    string
	tasks   []Task
	buffers []Buffer
}

// NewGraph returns an empty graph with the given name.
func NewGraph(name string) *Graph {
	return &Graph{Name: name}
}

// Assemble validates the graph over tasks and buffers and returns its
// facts. It takes ownership of both slices and of the duration and rate
// slices they hold, where AddTask and AddBuffer copy each one; element i
// gets ID i. The graph and its facts share one allocation.
func Assemble(name string, tasks []Task, buffers []Buffer) (*Facts, error) {
	fg := &struct {
		f Facts
		l lazy
		g Graph
	}{g: Graph{Name: name, tasks: tasks, buffers: buffers}}
	for i := range tasks {
		tasks[i].ID = TaskID(i)
	}
	for i := range buffers {
		buffers[i].ID = BufferID(i)
	}
	if err := fg.g.Validate(); err != nil {
		return nil, err
	}
	fg.f = Facts{g: &fg.g, lazy: &fg.l}
	return &fg.f, nil
}

// AddTask appends a task with the given per-phase durations and returns its
// ID. The task has len(durations) phases; durations must be non-negative
// and the slice non-empty (checked by Validate). The slice is copied.
func (g *Graph) AddTask(name string, durations []int64) TaskID {
	id := TaskID(len(g.tasks))
	g.tasks = append(g.tasks, Task{
		ID:        id,
		Name:      name,
		Durations: append([]int64(nil), durations...),
	})
	return id
}

// AddSDFTask appends a single-phase task (an SDF actor) and returns its ID.
func (g *Graph) AddSDFTask(name string, duration int64) TaskID {
	return g.AddTask(name, []int64{duration})
}

// AddBuffer appends a buffer from src to dst with production vector in,
// consumption vector out and initial marking m0, returning its ID. The rate
// slices are copied. Use Validate to check rate-vector lengths.
func (g *Graph) AddBuffer(name string, src, dst TaskID, in, out []int64, m0 int64) BufferID {
	id := BufferID(len(g.buffers))
	g.buffers = append(g.buffers, Buffer{
		ID:      id,
		Name:    name,
		Src:     src,
		Dst:     dst,
		In:      append([]int64(nil), in...),
		Out:     append([]int64(nil), out...),
		Initial: m0,
	})
	return id
}

// AddSDFBuffer appends a buffer with scalar rates (an SDF channel).
func (g *Graph) AddSDFBuffer(name string, src, dst TaskID, prod, cons, m0 int64) BufferID {
	return g.AddBuffer(name, src, dst, []int64{prod}, []int64{cons}, m0)
}

// SetCapacity records a capacity bound on buffer b (0 = unbounded). The
// bound only takes analytical effect after WithCapacities.
func (g *Graph) SetCapacity(b BufferID, capacity int64) {
	g.buffers[b].Capacity = capacity
}

// NumTasks returns |T|.
func (g *Graph) NumTasks() int { return len(g.tasks) }

// NumBuffers returns |B|.
func (g *Graph) NumBuffers() int { return len(g.buffers) }

// Task returns the task with the given ID. The returned pointer aliases
// graph storage and must not be mutated.
func (g *Graph) Task(id TaskID) *Task { return &g.tasks[id] }

// Buffer returns the buffer with the given ID. The returned pointer aliases
// graph storage and must not be mutated.
func (g *Graph) Buffer(id BufferID) *Buffer { return &g.buffers[id] }

// Tasks returns the task list in ID order. The slice aliases graph storage.
func (g *Graph) Tasks() []Task { return g.tasks }

// Buffers returns the buffer list in ID order. The slice aliases storage.
func (g *Graph) Buffers() []Buffer { return g.buffers }

// TaskByName looks a named task up; of several tasks with the same name it
// returns the last. The scan is linear: callers resolve a handful of names
// per graph, which costs less than indexing every graph.
func (g *Graph) TaskByName(name string) (TaskID, bool) {
	for i := len(g.tasks) - 1; i >= 0 && name != ""; i-- {
		if g.tasks[i].Name == name {
			return TaskID(i), true
		}
	}
	return 0, false
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := NewGraph(g.Name)
	for _, t := range g.tasks {
		c.AddTask(t.Name, t.Durations)
	}
	for _, b := range g.buffers {
		id := c.AddBuffer(b.Name, b.Src, b.Dst, b.In, b.Out, b.Initial)
		c.buffers[id].Capacity = b.Capacity
	}
	return c
}

// IsSDF reports whether every task has exactly one phase, i.e. the graph is
// a Synchronous Dataflow Graph.
func (g *Graph) IsSDF() bool {
	for i := range g.tasks {
		if g.tasks[i].Phases() != 1 {
			return false
		}
	}
	return true
}

// ValidationError describes a structural defect found by Validate.
type ValidationError struct {
	Kind string // "task" or "buffer"
	ID   int
	Msg  string
}

func (e *ValidationError) Error() string {
	return fmt.Sprintf("csdf: invalid %s %d: %s", e.Kind, e.ID, e.Msg)
}

// ErrEmptyGraph is returned by Validate for graphs with no tasks.
var ErrEmptyGraph = errors.New("csdf: graph has no tasks")

// Validate checks the structural well-formedness of the graph: every task
// has at least one phase and non-negative durations; every buffer connects
// existing tasks, its rate-vector lengths equal the phase counts of its
// endpoints, rates are non-negative with positive totals, and the initial
// marking is non-negative. It returns the first defect found.
func (g *Graph) Validate() error {
	if len(g.tasks) == 0 {
		return ErrEmptyGraph
	}
	if err := g.validateTasks(0, len(g.tasks)); err != nil {
		return err
	}
	return g.validateBuffers(0, len(g.buffers))
}

// validateTasks returns the first defect of the tasks lo to hi − 1, in
// Validate's order.
func (g *Graph) validateTasks(lo, hi int) error {
	for i := lo; i < hi; i++ {
		t := &g.tasks[i]
		if t.Phases() == 0 {
			return &ValidationError{"task", i, "no phases"}
		}
		for p, d := range t.Durations {
			if d < 0 {
				return &ValidationError{"task", i, fmt.Sprintf("negative duration %d at phase %d", d, p+1)}
			}
		}
	}
	return nil
}

// validateBuffers returns the first defect of the buffers lo to hi − 1,
// in Validate's order.
func (g *Graph) validateBuffers(lo, hi int) error {
	for i := lo; i < hi; i++ {
		b := &g.buffers[i]
		if int(b.Src) < 0 || int(b.Src) >= len(g.tasks) {
			return &ValidationError{"buffer", i, "unknown source task"}
		}
		if int(b.Dst) < 0 || int(b.Dst) >= len(g.tasks) {
			return &ValidationError{"buffer", i, "unknown destination task"}
		}
		if len(b.In) != g.tasks[b.Src].Phases() {
			return &ValidationError{"buffer", i, fmt.Sprintf("production vector has %d entries, source has %d phases", len(b.In), g.tasks[b.Src].Phases())}
		}
		if len(b.Out) != g.tasks[b.Dst].Phases() {
			return &ValidationError{"buffer", i, fmt.Sprintf("consumption vector has %d entries, destination has %d phases", len(b.Out), g.tasks[b.Dst].Phases())}
		}
		for p, v := range b.In {
			if v < 0 {
				return &ValidationError{"buffer", i, fmt.Sprintf("negative production %d at phase %d", v, p+1)}
			}
		}
		for p, v := range b.Out {
			if v < 0 {
				return &ValidationError{"buffer", i, fmt.Sprintf("negative consumption %d at phase %d", v, p+1)}
			}
		}
		if b.TotalIn() <= 0 {
			return &ValidationError{"buffer", i, "zero total production"}
		}
		if b.TotalOut() <= 0 {
			return &ValidationError{"buffer", i, "zero total consumption"}
		}
		if b.Initial < 0 {
			return &ValidationError{"buffer", i, "negative initial marking"}
		}
		if b.Capacity < 0 {
			return &ValidationError{"buffer", i, "negative capacity"}
		}
		if b.Capacity > 0 && b.Initial > b.Capacity {
			return &ValidationError{"buffer", i, "initial marking exceeds capacity"}
		}
	}
	return nil
}

// CumulativeIn returns Ia⟨tp, n⟩ = Σ_{α≤p} inb(α) + (n−1)·ib, the total
// number of tokens produced into b at the completion of the n-th execution
// of phase p (both 1-indexed), as defined in Section 3.1 of the paper.
func CumulativeIn(b *Buffer, p int, n int64) int64 {
	var s int64
	for a := 0; a < p; a++ {
		s += b.In[a]
	}
	return s + (n-1)*b.TotalIn()
}

// CumulativeOut returns Oa⟨t′p′, n′⟩ = Σ_{α≤p′} outb(α) + (n′−1)·ob, the
// total number of tokens consumed from b at the completion of the n′-th
// execution of phase p′ (both 1-indexed).
func CumulativeOut(b *Buffer, p int, n int64) int64 {
	var s int64
	for a := 0; a < p; a++ {
		s += b.Out[a]
	}
	return s + (n-1)*b.TotalOut()
}

// sumCheck adds rate totals with overflow detection, for use by analyses
// that scale rates by repetition counts.
func sumCheck(vs []int64) (int64, error) {
	s, ok := rat.SumInt64(vs)
	if !ok {
		return 0, &rat.ErrOverflow{Op: "rate sum"}
	}
	return s, nil
}
