package csdf

// Facts are what every analysis of one validated graph needs to know
// before it starts and what no analysis parameter changes: the repetition
// vector q, or the reason the graph has none, and the strongly connected
// components of its task digraph. A Facts value is immutable and records
// the graph it describes. It is computed once per graph, or derived from
// the facts of the graph an edit started from, and handed to every
// analysis of that graph instead of each analysis recomputing it.
//
// Facts are not memoized on the Graph itself: Task and Buffer hand out
// pointers into the graph, so a memo there could go stale without notice.
// A consumer handed facts for a graph other than the one it analyzes
// computes that graph's own.
type Facts struct {
	g    *Graph
	q    []int64
	qErr error
	sccs *SCCs
}

// factsAlloc holds a Facts and its components in one allocation.
type factsAlloc struct {
	f Facts
	s SCCs
}

// NewFacts validates g and computes its facts. Only a validation error is
// returned: a valid graph without a repetition vector still has facts,
// whose Repetition reports why.
func NewFacts(g *Graph) (*Facts, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	fa := new(factsAlloc)
	fa.f = Facts{g: g, sccs: &fa.s}
	fa.f.q, fa.f.qErr = g.repetitionVector()
	g.taskSCCsExact(&fa.s)
	return &fa.f, nil
}

// Graph returns the graph the facts describe.
func (f *Facts) Graph() *Graph { return f.g }

// Repetition returns the graph's repetition vector, or the error
// RepetitionVector reports for it. Every holder of the facts shares q, so
// it must not be modified.
func (f *Facts) Repetition() ([]int64, error) { return f.q, f.qErr }

// SCCs returns the strongly connected components of the graph's task
// digraph, as Graph.TaskSCCs computes them. They are shared and must not
// be modified.
func (f *Facts) SCCs() *SCCs { return f.sccs }

// CloneWithEdits returns the facts of f.Graph().CloneWithEdits(edits...).
// Durations and initial markings change neither q nor the components, so
// a clone whose edits touch no rate shares f's. Only its edited tasks and
// buffers are checked, in Validate's order; the rest of the clone is f's
// graph, which is valid, so the error is the one Validate would report. A
// rate edit computes the clone's facts afresh.
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
	return &Facts{g: c, q: f.q, qErr: f.qErr, sccs: f.sccs}, nil
}

// WithCapacities returns the facts of f.Graph().WithCapacities(). Every
// reverse buffer balances under the same q and joins two tasks that a
// buffer joins already, so q carries over; the reverse buffers do merge
// strongly connected components, which are computed afresh. The bounded
// graph of a valid graph is valid, so it is not validated again. A graph
// without a repetition vector gets all of its facts afresh, so that the
// error names a buffer of the bounded graph as RepetitionVector would.
func (f *Facts) WithCapacities() (*Facts, error) {
	bounded, err := f.g.WithCapacities()
	if err != nil {
		return nil, err
	}
	if f.qErr != nil {
		return NewFacts(bounded)
	}
	fa := new(factsAlloc)
	fa.f = Facts{g: bounded, q: f.q, sccs: &fa.s}
	bounded.taskSCCsExact(&fa.s)
	return &fa.f, nil
}
