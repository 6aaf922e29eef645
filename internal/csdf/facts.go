package csdf

import "sync"

// Facts stand for one validated graph, which is validated once where it
// enters the program (a decoder, NewFacts). They hold what every analysis
// of the graph needs before it starts and no analysis parameter changes:
// the repetition vector q, or the reason the graph has none, and the
// strongly connected components of its task digraph. Each is computed on
// first use, once however many goroutines ask, so facts no analysis reads
// (a cache hit) cost neither. Facts derived through an edit that leaves
// both unchanged share them.
//
// Facts are not memoized on the Graph itself: Task and Buffer hand out
// pointers into the graph, so a memo there could go stale without notice.
// A consumer handed facts for a graph other than the one it analyzes
// computes that graph's own.
type Facts struct {
	g *Graph
	*lazy
}

// lazy is the part of Facts computed on first use, shared by every graph
// with the same rates and topology.
type lazy struct {
	qOnce   sync.Once
	q       []int64
	qErr    error
	qFrom   *Facts // of a graph balanced by the same q, when it has one
	sccOnce sync.Once
	sccs    SCCs
}

// NewFacts validates g and returns its facts. Only a validation error is
// returned: a valid graph without a repetition vector still has facts,
// whose Repetition reports why.
func NewFacts(g *Graph) (*Facts, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return newFacts(g, nil), nil
}

// newFacts returns facts for the valid graph g in one allocation.
func newFacts(g *Graph, qFrom *Facts) *Facts {
	fl := &struct {
		f Facts
		l lazy
	}{l: lazy{qFrom: qFrom}}
	fl.f = Facts{g: g, lazy: &fl.l}
	return &fl.f
}

// Graph returns the graph the facts describe; nil facts describe none.
func (f *Facts) Graph() *Graph {
	if f == nil {
		return nil
	}
	return f.g
}

// Repetition returns the graph's repetition vector, or the error
// RepetitionVector reports for it. Every holder of the facts shares q, so
// it must not be modified.
func (f *Facts) Repetition() ([]int64, error) {
	f.qOnce.Do(func() {
		if f.qFrom != nil {
			if f.q, f.qErr = f.qFrom.Repetition(); f.qErr == nil {
				return
			}
		}
		f.q, f.qErr = f.g.repetitionVector()
	})
	return f.q, f.qErr
}

// SCCs returns the strongly connected components of the graph's task
// digraph, as Graph.TaskSCCs computes them. They are shared and must not
// be modified.
func (f *Facts) SCCs() *SCCs {
	f.sccOnce.Do(func() { f.g.taskSCCsExact(&f.sccs) })
	return &f.sccs
}

// CloneWithEdits returns the facts of f.Graph().CloneWithEdits(edits...).
// Durations and initial markings change neither q nor the components, so
// a clone whose edits touch no rate shares f's. Only its edited tasks and
// buffers are checked, in Validate's order; the rest of the clone is f's
// graph, which is valid, so the error is the one Validate would report. A
// rate edit validates the clone afresh.
func (f *Facts) CloneWithEdits(edits ...Edit) (*Facts, error) {
	c, err := f.g.CloneWithEdits(edits...)
	if err != nil {
		return nil, err
	}
	task, buf := -1, -1
	for _, e := range edits {
		switch e.kind {
		case editProduction, editConsumption:
			return NewFacts(c)
		case editDuration:
			if (task < 0 || int(e.task) < task) && c.validateTasks(int(e.task), int(e.task)+1) != nil {
				task = int(e.task)
			}
		case editInitial:
			if (buf < 0 || int(e.buffer) < buf) && c.validateBuffers(int(e.buffer), int(e.buffer)+1) != nil {
				buf = int(e.buffer)
			}
		}
	}
	switch {
	case task >= 0:
		return nil, c.validateTasks(task, task+1)
	case buf >= 0:
		return nil, c.validateBuffers(buf, buf+1)
	}
	return &Facts{g: c, lazy: f.lazy}, nil
}

// WithCapacities returns the facts of f.Graph().WithCapacities(), which is
// valid because f's graph is, so it is not validated again. Every reverse
// buffer balances under the same q, so q carries over; the bounded graph
// computes its own components, which the reverse buffers merge, and its
// own q when f's graph has none, so that the error names a buffer of the
// bounded graph as RepetitionVector would.
func (f *Facts) WithCapacities() (*Facts, error) {
	bounded, err := f.g.WithCapacities()
	if err != nil {
		return nil, err
	}
	return newFacts(bounded, f), nil
}
