package kperiodic

import (
	"context"
	"errors"

	"kiter/internal/csdf"
	"kiter/internal/mcr"
	"kiter/internal/rat"
)

// evaluation is the solved state of one round: the builder, whose
// components hold their latest answers, and the critical component with
// its answer, so that K-Iter can certify or inspect the circuit without
// re-solving.
type evaluation struct {
	b    *builder
	crit *component // nil when deadlock is set
	res  mcr.Result // crit's answer; Certified once certify ran
	// howard sums the Howard iterations of the component solves that ran
	// in this round.
	howard int
	// deadlock holds the infeasibility certificate circuit when a
	// component's MCRP reported one.
	deadlock []PhaseRef
	refs     []PhaseRef // critical's memo
}

// solveK builds the bi-valued graph for f's graph and K in w and solves
// the MCRP. The context is polled during constraint generation (the
// dominating cost), so a cancelled ctx aborts mid-expansion rather than
// after it. An infeasible K comes back as *DeadlockError when its
// certificate circuit passes the multiplicity condition and as
// *ErrInfeasibleK otherwise.
func (w *workspace) solveK(ctx context.Context, f *csdf.Facts, K []int64, opt Options) (*evaluation, error) {
	if err := w.b.reset(f, K, opt); err != nil {
		return nil, err
	}
	w.b.ctx = ctx
	q := w.b.q
	ev, err := resolve(ctx, &w.b, &w.s, opt)
	if err != nil {
		return nil, err
	}
	if ev.deadlock != nil {
		tasks := uniqueTasks(ev.deadlock)
		if optimalityTest(tasks, q, K) {
			return nil, &DeadlockError{K: append([]int64(nil), K...), Tasks: tasks}
		}
		return nil, &ErrInfeasibleK{K: append([]int64(nil), K...), Tasks: tasks}
	}
	return ev, nil
}

// resolve brings the builder's blocks up to date and solves the MCRP one
// strongly connected component at a time, with the given solver. Only
// stale components are solved — those with a task whose K changed since
// their latest solve, and all of them after a reset; every other
// component's graph is unchanged, so its latest answer stands. K-Iter
// calls resolve once per round with the same builder and solver, which is
// what makes repeated rounds cheap: unchanged arc blocks are replayed, the
// solver's scratch is recycled, a round re-solves only the components of
// the tasks whose K it bumped, and Howard starts each of them from its
// final policy of that component's previous solve, mapped onto the
// rebuilt graph.
//
// The critical component is the one with the largest exact ratio; ties go
// to the circuit with the lowest node of the whole graph. A component
// without a circuit is skipped, and when none has one the result is
// ErrUnbounded. The first infeasible component, in the order of their
// lowest tasks, gives the deadlock certificate. Unless opt.SkipCertify is
// set, the answer is then certified exactly.
func resolve(ctx context.Context, b *builder, s *mcr.Solver, opt Options) (*evaluation, error) {
	if err := b.refresh(); err != nil {
		return nil, err
	}
	ev := &evaluation{b: b}
	for i := range b.comps {
		c := &b.comps[i]
		if !c.stale {
			continue
		}
		b.place(c)
		b.emitComponent(c)
		if b.traceSolve != nil {
			b.traceSolve(c.nodes)
		}
		res, err := s.SolveCtx(ctx, b.mg, mcr.Options{SkipCertify: true, InitPolicy: b.warmPolicy(c)})
		b.keepPolicy(c, s.Policy())
		b.setAnswer(c, res, err == nil)
		if err != nil && !errors.Is(err, mcr.ErrNoCycle) {
			var de *mcr.DeadlockError
			if !errors.As(err, &de) {
				return nil, err
			}
			// The component stays stale: a deadlock either ends the
			// analysis or bumps K on the certificate's tasks.
			if ev.deadlock == nil {
				ev.deadlock = b.arcRefs(c, de.CycleArcs)
			}
			continue
		}
		ev.howard += res.Iterations
		c.stale = false
	}
	if ev.deadlock != nil {
		return ev, nil
	}
	for i := range b.comps {
		c := &b.comps[i]
		if !c.cyclic {
			continue
		}
		if ev.crit == nil {
			ev.crit = c
			continue
		}
		d := c.res.Ratio.Cmp(ev.crit.res.Ratio)
		if d > 0 || d == 0 && c.low.before(ev.crit.low) {
			ev.crit = c
		}
	}
	if ev.crit == nil {
		return nil, ErrUnbounded
	}
	ev.res = ev.crit.res
	ev.res.Certified = false
	if !opt.SkipCertify {
		if err := ev.certify(ctx, s); err != nil {
			return nil, err
		}
	}
	return ev, nil
}

// certify makes ev exact. It refines the critical component's float
// candidate to that component's exact maximum ratio λ, then checks every
// other component for a circuit of ratio above λ; one that has such a
// circuit is refined to its own maximum and becomes critical. No circuit
// crosses components, so this certifies λ for the whole graph. An
// infeasible circuit found on the way becomes ev.deadlock instead.
func (ev *evaluation) certify(ctx context.Context, s *mcr.Solver) error {
	b := ev.b
	b.emitComponent(ev.crit)
	res, err := s.RefineCtx(ctx, b.mg, ev.crit.res)
	if err != nil {
		return ev.refineFailed(ev.crit, err)
	}
	b.setAnswer(ev.crit, res, true)
	for i := range b.comps {
		c := &b.comps[i]
		if c == ev.crit {
			continue
		}
		b.emitComponent(c)
		better, err := s.RefineCtx(ctx, b.mg, mcr.Result{Ratio: res.Ratio})
		if err != nil {
			return ev.refineFailed(c, err)
		}
		if better.CycleArcs != nil {
			ev.crit, res = c, better
			b.setAnswer(c, better, true)
		}
	}
	ev.res, ev.refs = res, nil
	return nil
}

// refineFailed records a refinement error of component c: an infeasible
// circuit becomes ev.deadlock; any other error is returned.
func (ev *evaluation) refineFailed(c *component, err error) error {
	var de *mcr.DeadlockError
	if !errors.As(err, &de) {
		return err
	}
	ev.crit, ev.deadlock = nil, ev.b.arcRefs(c, de.CycleArcs)
	return nil
}

// arcRefs maps a circuit of component c's graph, given by its arcs, to
// expanded phases; b.mg must hold c's graph.
func (b *builder) arcRefs(c *component, arcs []int) []PhaseRef {
	refs := make([]PhaseRef, len(arcs))
	for i, ai := range arcs {
		refs[i] = b.localRef(c, b.mg.Arc(ai).From)
	}
	return refs
}

// setAnswer records res as c's latest answer, with the lowest (task,
// phase) on its circuit when it has one. Node numbers, in the component
// graph as in the whole graph, ascend in (task, phase) order for any K,
// so the lowest local node is that phase, and comparing two components'
// phases orders them as their lowest whole-graph nodes would.
func (b *builder) setAnswer(c *component, res mcr.Result, cyclic bool) {
	c.res, c.cyclic = res, cyclic
	if !cyclic {
		return
	}
	low := res.CycleNodes[0]
	for _, node := range res.CycleNodes[1:] {
		low = min(low, node)
	}
	c.low = b.localRef(c, low)
}

// critical returns ev's critical circuit as expanded phases.
func (ev *evaluation) critical() []PhaseRef {
	if ev.refs == nil {
		ev.refs = make([]PhaseRef, len(ev.res.CycleNodes))
		for i, node := range ev.res.CycleNodes {
			ev.refs[i] = ev.b.localRef(ev.crit, node)
		}
	}
	return ev.refs
}

// toEvaluation converts a solved MCRP into the public Evaluation. The
// builder stores H weights in the lcm-free normalization, so the maximum
// ratio already is the Theorem 3 normalized period Ω_G = Ω_G̃/lcm(K), and
// lcm(K) is computed only here, for the report.
func (ev *evaluation) toEvaluation() *Evaluation {
	b := ev.b
	out := &Evaluation{
		K:                append([]int64(nil), b.K...),
		LcmK:             lcmK(b.K),
		Certified:        ev.res.Certified,
		Nodes:            b.nodes,
		Arcs:             b.arcs,
		HowardIterations: ev.howard,
	}
	out.Period = ev.res.Ratio
	if out.Period.Sign() > 0 {
		out.Throughput = out.Period.Inv()
	}
	out.Critical = ev.critical()
	out.CriticalTasks = uniqueTasks(out.Critical)
	return out
}

// EvaluateK computes the minimum period over all feasible K-periodic
// schedules of g with the fixed periodicity vector K (Theorems 2 and 3).
// The returned Evaluation carries the exact normalized period
// Ω_G = Ω_G̃/lcm(K), a critical circuit and the Theorem 4 optimality
// verdict for this K.
//
// An infeasible K — a circuit of the bi-valued graph with non-positive
// total time — yields a *DeadlockError only when the circuit also passes
// the multiplicity condition; otherwise EvaluateK reports the infeasibility
// as ErrInfeasibleK, since a larger K may still admit a schedule.
func EvaluateK(g *csdf.Graph, K []int64, opt Options) (*Evaluation, error) {
	f, err := csdf.NewFacts(g)
	if err != nil {
		return nil, err
	}
	return EvaluateKFacts(context.Background(), f, K, opt)
}

// EvaluateKFacts is EvaluateK with cancellation on the graph f describes:
// when ctx is cancelled the evaluation aborts (also inside the
// pair-enumeration inner loop) and the context's error is returned.
func EvaluateKFacts(ctx context.Context, f *csdf.Facts, K []int64, opt Options) (*Evaluation, error) {
	w := getWorkspace()
	out, err := w.evaluateK(ctx, f, K, opt)
	w.release()
	return out, err
}

// evaluateK is EvaluateKFacts in w.
func (w *workspace) evaluateK(ctx context.Context, f *csdf.Facts, K []int64, opt Options) (*Evaluation, error) {
	ev, err := w.solveK(ctx, f, K, opt)
	if err != nil {
		return nil, err
	}
	out := ev.toEvaluation()
	out.Optimal = optimalityTest(out.CriticalTasks, w.b.q, K)
	return out, nil
}

// ErrInfeasibleK reports that no K-periodic schedule exists for this K,
// with the certificate circuit's tasks; a larger K may admit one (K-Iter
// continues through this situation automatically).
type ErrInfeasibleK struct {
	K     []int64
	Tasks []csdf.TaskID
}

func (e *ErrInfeasibleK) Error() string {
	return "kperiodic: no K-periodic schedule for this K (circuit over given tasks); try a larger K"
}

// Evaluate1 runs the 1-periodic method: the approximate periodic-schedule
// evaluation of [4] that the paper uses as its fast baseline. The result's
// Period is an upper bound on the optimal period (its Throughput a lower
// bound on the maximum throughput); Optimal reports whether it is provably
// tight.
func Evaluate1(g *csdf.Graph, opt Options) (*Evaluation, error) {
	f, err := csdf.NewFacts(g)
	if err != nil {
		return nil, err
	}
	return Evaluate1Facts(context.Background(), f, opt)
}

// Evaluate1Facts is Evaluate1 with cancellation on the graph f describes.
func Evaluate1Facts(ctx context.Context, f *csdf.Facts, opt Options) (*Evaluation, error) {
	return EvaluateKFacts(ctx, f, ones(f.Graph().NumTasks()), opt)
}

// Expansion evaluates with K = q, the repetition vector: the classical
// full-expansion technique ([10], reduced variants [12, 6]). This always
// satisfies the optimality test and therefore returns the exact maximum
// throughput, at the cost of a bi-valued graph whose size is governed by
// Σ qt rather than the instance size. It is the optimal baseline of
// Table 1.
func Expansion(g *csdf.Graph, opt Options) (*Evaluation, error) {
	f, err := csdf.NewFacts(g)
	if err != nil {
		return nil, err
	}
	return ExpansionFacts(context.Background(), f, opt)
}

// ExpansionFacts is Expansion with cancellation on the graph f describes.
func ExpansionFacts(ctx context.Context, f *csdf.Facts, opt Options) (*Evaluation, error) {
	q, err := f.Repetition()
	if err != nil {
		return nil, err
	}
	return EvaluateKFacts(ctx, f, q, opt)
}

// optimalityTest implements Theorem 4: for the tasks of a critical circuit
// c, with q̄t = qt / gcd{qt′ : t′ ∈ c}, the evaluation is optimal when
// every Kt (t ∈ c) is a multiple of q̄t.
func optimalityTest(tasks []csdf.TaskID, q, K []int64) bool {
	if len(tasks) == 0 {
		return false
	}
	var g int64
	for _, t := range tasks {
		g = rat.Gcd(g, q[t])
	}
	for _, t := range tasks {
		qBar := q[t] / g
		if K[t]%qBar != 0 {
			return false
		}
	}
	return true
}
