package kperiodic

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"kiter/internal/csdf"
	"kiter/internal/rat"
)

// Schedule is a concrete feasible K-periodic schedule: the start times of
// the first Kt·ϕ(t) executions of every task, plus the per-task period µt.
// Execution ⟨tp, n⟩ with n = α·Kt + β starts at S⟨tp, β⟩ + α·µt
// (Section 2.4).
type Schedule struct {
	K      []int64
	Q      []int64
	Period rat.Rat // Ω_G (graph-iteration period)
	// Starts[t][j] is the start time of expanded phase j+1 of task t
	// (j = (β−1)·ϕ(t) + p − 1).
	Starts [][]rat.Rat
	// Mu[t] is the task period µt = Ω_G·Kt/qt, the time between execution
	// n and n+Kt of any phase of t.
	Mu []rat.Rat

	phases []int
}

// StartOf returns the start time of ⟨t_p, n⟩ for the original phase
// p ∈ 1…ϕ(t) and execution index n ≥ 1.
func (s *Schedule) StartOf(t csdf.TaskID, p int, n int64) rat.Rat {
	kt := s.K[t]
	beta := (n - 1) % kt // 0-based repeat
	alpha := (n - 1) / kt
	idx := int(beta)*s.phases[t] + p - 1
	return s.Starts[t][idx].Add(s.Mu[t].Mul(rat.FromInt(alpha)))
}

// ScheduleK solves the K-periodic scheduling problem for a fixed K and
// materializes an optimal feasible schedule: start times are the exact
// longest-path potentials of the bi-valued graph at the optimal period.
func ScheduleK(g *csdf.Graph, K []int64, opt Options) (*Schedule, error) {
	f, err := csdf.NewFacts(g)
	if err != nil {
		return nil, err
	}
	return ScheduleKFacts(context.Background(), f, K, opt)
}

// ScheduleKFacts is ScheduleK with cancellation on the graph f describes.
func ScheduleKFacts(ctx context.Context, f *csdf.Facts, K []int64, opt Options) (*Schedule, error) {
	w := getWorkspace()
	sch, err := w.scheduleK(ctx, f, K, opt)
	w.release()
	return sch, err
}

// scheduleK is ScheduleKFacts in w.
func (w *workspace) scheduleK(ctx context.Context, f *csdf.Facts, K []int64, opt Options) (*Schedule, error) {
	opt.SkipCertify = false // exact potentials need the exact period
	ev, err := w.solveK(ctx, f, K, opt)
	if err != nil {
		return nil, err
	}
	g, q := f.Graph(), w.b.q
	// The potentials need the whole graph: start times depend on the
	// buffers between components too.
	b := ev.b
	if err := b.build(); err != nil {
		return nil, err
	}
	// Longest-path potentials with arc weights w = L − λ·H, where λ is the
	// optimal ratio in the builder's lcm-free normalization (λ = Ω_G,
	// H = lcm(K)·H̃ — the product λ·H equals Ω̃_G̃·H̃ exactly): at the
	// optimum every circuit has non-positive weight, so Bellman–Ford from
	// an all-zero source converges within n rounds.
	lambda := ev.res.Ratio
	n := b.mg.NumNodes()
	dist := make([]rat.Rat, n)
	for round := 0; round < n; round++ {
		changed := false
		for i := 0; i < b.mg.NumArcs(); i++ {
			a := b.mg.Arc(i)
			wt := rat.FromInt(a.L).Sub(lambda.Mul(a.H))
			cand := dist[a.From].Add(wt)
			if cand.Cmp(dist[a.To]) > 0 {
				dist[a.To] = cand
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	sch := &Schedule{
		K:      append([]int64(nil), K...),
		Q:      slices.Clone(q),
		Period: ev.res.Ratio,
		Starts: make([][]rat.Rat, g.NumTasks()),
		Mu:     make([]rat.Rat, g.NumTasks()),
		phases: make([]int, g.NumTasks()),
	}
	for t := 0; t < g.NumTasks(); t++ {
		sch.phases[t] = g.Task(csdf.TaskID(t)).Phases()
		cnt := int(K[t]) * sch.phases[t]
		sch.Starts[t] = make([]rat.Rat, cnt)
		for j := 0; j < cnt; j++ {
			sch.Starts[t][j] = dist[b.node(csdf.TaskID(t), j+1)]
		}
		sch.Mu[t] = sch.Period.Mul(rat.NewRat(K[t], q[t]))
	}
	return sch, nil
}

// Validate replays the schedule over the given number of graph iterations
// and verifies that no buffer marking ever goes negative (consumption at
// execution start, production at completion, simultaneous productions
// applied first) and — under the default sequential semantics — that each
// task's executions do not overlap. It returns nil when the prefix is
// feasible.
func (s *Schedule) Validate(g *csdf.Graph, iterations int64) error {
	type event struct {
		time    rat.Rat
		produce bool
		buf     csdf.BufferID
		amount  int64
	}
	var events []event
	for _, b := range g.Buffers() {
		src, dst := b.Src, b.Dst
		srcPhases := g.Task(src).Phases()
		dstPhases := g.Task(dst).Phases()
		nSrc := iterations * s.Q[src]
		for n := int64(1); n <= nSrc; n++ {
			for p := 1; p <= srcPhases; p++ {
				if b.In[p-1] == 0 {
					continue
				}
				end := s.StartOf(src, p, n).Add(rat.FromInt(g.Task(src).Durations[p-1]))
				events = append(events, event{time: end, produce: true, buf: b.ID, amount: b.In[p-1]})
			}
		}
		nDst := iterations * s.Q[dst]
		for n := int64(1); n <= nDst; n++ {
			for p := 1; p <= dstPhases; p++ {
				if b.Out[p-1] == 0 {
					continue
				}
				start := s.StartOf(dst, p, n)
				events = append(events, event{time: start, produce: false, buf: b.ID, amount: b.Out[p-1]})
			}
		}
	}
	// Sort by time; productions before consumptions at equal times (a
	// token produced at t may be read by an execution starting at t,
	// matching the ≥ in Theorem 2).
	sort.Slice(events, func(i, j int) bool {
		c := events[i].time.Cmp(events[j].time)
		if c != 0 {
			return c < 0
		}
		return events[i].produce && !events[j].produce
	})
	tokens := make([]int64, g.NumBuffers())
	for i, b := range g.Buffers() {
		tokens[i] = b.Initial
	}
	for _, ev := range events {
		if ev.produce {
			tokens[ev.buf] += ev.amount
		} else {
			tokens[ev.buf] -= ev.amount
			if tokens[ev.buf] < 0 {
				return fmt.Errorf("kperiodic: schedule infeasible: buffer %s negative (%d) at t=%s",
					g.Buffer(ev.buf).Name, tokens[ev.buf], ev.time)
			}
		}
	}
	// Non-overlap per task.
	for t := 0; t < g.NumTasks(); t++ {
		task := g.Task(csdf.TaskID(t))
		var prevEnd rat.Rat
		first := true
		total := iterations * s.Q[t]
		for n := int64(1); n <= total; n++ {
			for p := 1; p <= task.Phases(); p++ {
				st := s.StartOf(csdf.TaskID(t), p, n)
				if !first && st.Cmp(prevEnd) < 0 {
					return fmt.Errorf("kperiodic: schedule overlaps: task %s phase %d execution %d starts at %s before previous end %s",
						task.Name, p, n, st, prevEnd)
				}
				prevEnd = st.Add(rat.FromInt(task.Durations[p-1]))
				first = false
			}
		}
	}
	return nil
}
