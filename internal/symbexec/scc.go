package symbexec

import (
	"context"
	"fmt"

	"kiter/internal/csdf"
	"kiter/internal/rat"
)

// subgraph extracts the induced subgraph on the given tasks (with all
// buffers whose both endpoints belong to the set), returning it together
// with the mapping from new to old task IDs.
func subgraph(g *csdf.Graph, tasks []csdf.TaskID) (*csdf.Graph, []csdf.TaskID) {
	sub := csdf.NewGraph(fmt.Sprintf("%s/scc", g.Name))
	oldToNew := make(map[csdf.TaskID]csdf.TaskID, len(tasks))
	newToOld := make([]csdf.TaskID, 0, len(tasks))
	for _, t := range tasks {
		task := g.Task(t)
		id := sub.AddTask(task.Name, task.Durations)
		oldToNew[t] = id
		newToOld = append(newToOld, t)
	}
	for _, b := range g.Buffers() {
		src, okS := oldToNew[b.Src]
		dst, okD := oldToNew[b.Dst]
		if okS && okD {
			sub.AddBuffer(b.Name, src, dst, b.In, b.Out, b.Initial)
		}
	}
	return sub, newToOld
}

// runDecomposed evaluates a graph with several SCCs: buffers between
// components never throttle self-timed execution in the long run
// (unbounded FIFOs only accumulate), so the graph's normalized period is
// the maximum over the components' isolated normalized periods. Each
// component period is rescaled from the component-local repetition vector
// to the global one.
func runDecomposed(ctx context.Context, g *csdf.Graph, q []int64, comps *csdf.SCCs, opt Options) (*Result, error) {
	best := &Result{}
	haveBest := false
	for c := range comps.Len() {
		comp := comps.Component(c)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var compRes *Result
		sub, newToOld := subgraph(g, comp)
		if sub.NumBuffers() == 0 {
			// A lone task without self-buffers: it fires back-to-back, so
			// its normalized period is q_t · Σd(t).
			t := g.Task(newToOld[0])
			period := rat.FromInt(q[newToOld[0]] * t.TotalDuration())
			compRes = &Result{Period: period}
			if period.Sign() > 0 {
				compRes.Throughput = period.Inv()
			}
		} else {
			// The component is connected, so its own minimal repetition
			// vector q′ is the global q restricted to it divided by their
			// gcd λ; its period rescales by λ.
			var lambda int64
			for _, t := range newToOld {
				lambda = rat.Gcd(lambda, q[t])
			}
			qSub := make([]int64, len(newToOld))
			for i, t := range newToOld {
				qSub[i] = q[t] / lambda
			}
			subOpt := opt
			subOpt.Reference = 0
			subOpt.TraceHorizon = 0
			r, err := runRecurrence(ctx, sub, qSub, subOpt)
			if err != nil {
				return nil, err
			}
			r.Period = r.Period.Mul(rat.FromInt(lambda))
			if r.Period.Sign() > 0 {
				r.Throughput = r.Period.Inv()
			}
			compRes = r
		}
		if !haveBest || compRes.Period.Cmp(best.Period) > 0 {
			events, states := best.Events, best.StatesStored
			best = compRes
			best.Events += events
			best.StatesStored += states
			haveBest = true
		} else {
			best.Events += compRes.Events
			best.StatesStored += compRes.StatesStored
		}
	}
	if !haveBest {
		return nil, fmt.Errorf("symbexec: graph has no tasks")
	}
	return best, nil
}
