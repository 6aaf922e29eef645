package kperiodic

import (
	"context"
	"errors"
	"math/big"

	"kiter/internal/csdf"
	"kiter/internal/mcr"
	"kiter/internal/rat"
)

// evaluation bundles the bi-valued graph with its solved MCRP result so
// that K-Iter can re-certify or inspect circuits without rebuilding.
type evaluation struct {
	b   *builder
	res mcr.Result
	// deadlock holds the infeasibility certificate circuit when the MCRP
	// reported one (res is then zero).
	deadlock []PhaseRef
}

// solveK builds the bi-valued graph for (g, q, K) in w and solves the
// MCRP. The context is polled during constraint generation (the dominating
// cost), so a cancelled ctx aborts mid-expansion rather than after it. An
// infeasible K comes back as *DeadlockError when its certificate circuit
// passes the multiplicity condition and as *ErrInfeasibleK otherwise.
func (w *workspace) solveK(ctx context.Context, g *csdf.Graph, q, K []int64, opt Options) (*evaluation, error) {
	if err := w.b.reset(g, q, K, opt); err != nil {
		return nil, err
	}
	w.b.ctx = ctx
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

// resolve brings the builder's constraint graph up to date and solves the
// MCRP with the given solver. K-Iter calls it once per round with the same
// builder and solver, which is what makes repeated rounds cheap: unchanged
// arc blocks are replayed, the solver's scratch is recycled, and Howard
// starts from the solver's final policy of the previous round, mapped onto
// the rebuilt graph. A builder and solver are paired in one workspace, so
// that policy always belongs to the builder's previous build; on a first
// build after reset there is none, and the solver's leftover policy from
// an earlier graph is ignored.
func resolve(ctx context.Context, b *builder, s *mcr.Solver, opt Options) (*evaluation, error) {
	if err := b.build(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res, err := s.SolveCtx(ctx, b.mg, mcr.Options{
		SkipCertify: opt.SkipCertify,
		InitPolicy:  b.warmPolicy(s.Policy()),
	})
	if err != nil {
		var de *mcr.DeadlockError
		if errors.As(err, &de) {
			ev := &evaluation{b: b}
			for _, ai := range de.CycleArcs {
				ev.deadlock = append(ev.deadlock, b.phaseRef(b.mg.Arc(ai).From))
			}
			return ev, nil
		}
		if errors.Is(err, mcr.ErrNoCycle) {
			return nil, ErrUnbounded
		}
		return nil, err
	}
	return &evaluation{b: b, res: res}, nil
}

// toEvaluation converts a solved MCRP into the public Evaluation. The
// builder stores H weights in the lcm-free normalization, so the maximum
// ratio already is the Theorem 3 normalized period Ω_G = Ω_G̃/lcm(K).
func (ev *evaluation) toEvaluation() *Evaluation {
	b := ev.b
	out := &Evaluation{
		K:                append([]int64(nil), b.K...),
		LcmK:             new(big.Int).Set(b.lcmK),
		Certified:        ev.res.Certified,
		Nodes:            b.mg.NumNodes(),
		Arcs:             b.mg.NumArcs(),
		HowardIterations: ev.res.Iterations,
	}
	out.Period = ev.res.Ratio
	if out.Period.Sign() > 0 {
		out.Throughput = out.Period.Inv()
	}
	for _, node := range ev.res.CycleNodes {
		out.Critical = append(out.Critical, b.phaseRef(node))
	}
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
	return EvaluateKCtx(context.Background(), g, K, opt)
}

// EvaluateKCtx is EvaluateK with cancellation: when ctx is cancelled the
// evaluation aborts (also inside the pair-enumeration inner loop) and the
// context's error is returned.
func EvaluateKCtx(ctx context.Context, g *csdf.Graph, K []int64, opt Options) (*Evaluation, error) {
	q, err := g.RepetitionVector()
	if err != nil {
		return nil, err
	}
	w := getWorkspace()
	out, err := w.evaluateK(ctx, g, q, K, opt)
	w.release()
	return out, err
}

// evaluateK is EvaluateKCtx in w.
func (w *workspace) evaluateK(ctx context.Context, g *csdf.Graph, q, K []int64, opt Options) (*Evaluation, error) {
	ev, err := w.solveK(ctx, g, q, K, opt)
	if err != nil {
		return nil, err
	}
	out := ev.toEvaluation()
	out.Optimal = optimalityTest(out.CriticalTasks, q, K)
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
	return Evaluate1Ctx(context.Background(), g, opt)
}

// Evaluate1Ctx is Evaluate1 with cancellation.
func Evaluate1Ctx(ctx context.Context, g *csdf.Graph, opt Options) (*Evaluation, error) {
	K := make([]int64, g.NumTasks())
	for i := range K {
		K[i] = 1
	}
	return EvaluateKCtx(ctx, g, K, opt)
}

// Expansion evaluates with K = q, the repetition vector: the classical
// full-expansion technique ([10], reduced variants [12, 6]). This always
// satisfies the optimality test and therefore returns the exact maximum
// throughput, at the cost of a bi-valued graph whose size is governed by
// Σ qt rather than the instance size. It is the optimal baseline of
// Table 1.
func Expansion(g *csdf.Graph, opt Options) (*Evaluation, error) {
	return ExpansionCtx(context.Background(), g, opt)
}

// ExpansionCtx is Expansion with cancellation.
func ExpansionCtx(ctx context.Context, g *csdf.Graph, opt Options) (*Evaluation, error) {
	q, err := g.RepetitionVector()
	if err != nil {
		return nil, err
	}
	return EvaluateKCtx(ctx, g, q, opt)
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
