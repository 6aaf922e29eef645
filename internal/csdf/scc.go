package csdf

import "slices"

// SCCs holds the strongly connected components of a graph's task digraph:
// the digraph with an arc t → t′ for every buffer from t to a distinct
// task t′. Fill it with Graph.TaskSCCs; a value kept across calls reuses
// every array it grew.
type SCCs struct {
	// Comp[t] is the component of task t. Components are numbered in the
	// order Tarjan's algorithm closes them, a reverse topological order of
	// the condensation: a buffer between two components always runs from
	// the higher-numbered one to the lower.
	Comp []int32
	// Tasks lists the tasks component by component, each component in the
	// order Tarjan's stack pops it: component c is Tasks[Start[c]:Start[c+1]].
	Tasks []TaskID
	Start []int32

	// Tarjan scratch: the successor lists (per task the first of its
	// outgoing buffers, per buffer its destination and the next buffer
	// with the same source, −1 ending a list), the search state per task
	// and the search's two stacks.
	dst, nextOut []int32
	state        []sccState
	stack, path  []int32
}

// sccState is a task's Tarjan state: its visit index (−1 before the
// visit), its low link, the next of its outgoing buffers to explore and
// whether it is on the component stack.
type sccState struct {
	index, low, next int32
	onStack          bool
}

// Len returns the number of components.
func (s *SCCs) Len() int { return len(s.Start) - 1 }

// Component returns the tasks of component c. The slice aliases s.
func (s *SCCs) Component(c int) []TaskID { return s.Tasks[s.Start[c]:s.Start[c+1]] }

// TaskSCCs computes the strongly connected components of g's task digraph
// into s (Tarjan, iterative, roots and successors in ID order) and returns
// s; a nil s is allocated. Only buffers join tasks, so a self-loop buffer
// joins nothing, and a capacity modelled by WithCapacities's reverse
// buffer merges its two endpoints.
func (g *Graph) TaskSCCs(s *SCCs) *SCCs {
	if s == nil {
		s = new(SCCs)
	}
	n, nb := g.NumTasks(), len(g.buffers)
	comp := resize(s.Comp, n)
	state := resize(s.state, n)
	for v := range state {
		state[v] = sccState{index: -1, next: -1}
	}
	// Prepend each task's outgoing buffers, last first, so that every
	// list runs in buffer order.
	dst, nextOut := resize(s.dst, nb), resize(s.nextOut, nb)
	for i := nb - 1; i >= 0; i-- {
		if b := &g.buffers[i]; b.Src != b.Dst {
			dst[i], nextOut[i] = int32(b.Dst), state[b.Src].next
			state[b.Src].next = int32(i)
		}
	}
	// Each of these holds at most one entry per task (Start one more).
	tasks, start := slices.Grow(s.Tasks[:0], n), append(slices.Grow(s.Start[:0], n+1), 0)
	stack, path := slices.Grow(s.stack[:0], n), slices.Grow(s.path[:0], n)
	var cnt int32
	for root := range int32(n) {
		if state[root].index >= 0 {
			continue
		}
		state[root].index, state[root].low, state[root].onStack = cnt, cnt, true
		cnt++
		stack, path = append(stack, root), append(path, root)
		for len(path) > 0 {
			v := path[len(path)-1]
			sv := &state[v]
			if i := sv.next; i >= 0 {
				w := dst[i]
				sv.next = nextOut[i]
				if sw := &state[w]; sw.index < 0 {
					sw.index, sw.low, sw.onStack = cnt, cnt, true
					cnt++
					stack, path = append(stack, w), append(path, w)
				} else if sw.onStack && sw.index < sv.low {
					sv.low = sw.index
				}
				continue
			}
			if sv.low == sv.index {
				c := int32(len(start) - 1)
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					state[w].onStack = false
					comp[w] = c
					tasks = append(tasks, TaskID(w))
					if w == v {
						break
					}
				}
				start = append(start, int32(len(tasks)))
			}
			path = path[:len(path)-1]
			if len(path) > 0 {
				sp := &state[path[len(path)-1]]
				sp.low = min(sp.low, sv.low)
			}
		}
	}
	s.dst, s.nextOut, s.Comp, s.state = dst, nextOut, comp, state
	s.Tasks, s.Start, s.stack, s.path = tasks, start, stack, path
	return s
}

// taskSCCsExact computes g's components into an empty s with every array
// sized exactly, in three allocations, and then drops the search scratch,
// so that an s kept for the graph's lifetime holds only Comp, Tasks and
// Start and the scratch they share an allocation with.
func (g *Graph) taskSCCsExact(s *SCCs) {
	n, nb := len(g.tasks), len(g.buffers)
	i32 := make([]int32, 5*n+1+2*nb)
	s.Comp, i32 = i32[:0:n], i32[n:]
	s.Start, i32 = i32[:0:n+1], i32[n+1:]
	s.stack, i32 = i32[:0:n], i32[n:]
	s.path, i32 = i32[:0:n], i32[n:]
	s.dst, s.nextOut = i32[:0:nb], i32[nb:nb:2*nb]
	s.state = make([]sccState, n)
	s.Tasks = make([]TaskID, 0, n)
	g.TaskSCCs(s)
	s.dst, s.nextOut, s.state, s.stack, s.path = nil, nil, nil, nil, nil
}

// resize returns b with length n, reallocating only when its capacity
// falls short. The contents are unspecified.
func resize[T any](b []T, n int) []T {
	return slices.Grow(b[:0], n)[:n]
}
