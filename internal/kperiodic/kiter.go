package kperiodic

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"kiter/internal/csdf"
	"kiter/internal/rat"
	"kiter/internal/telemetry"
)

// IterStep records one round of the K-Iter loop for tracing and the
// convergence experiments.
type IterStep struct {
	K             []int64
	Period        rat.Rat // Ω_G for this K; zero when the K was infeasible
	Infeasible    bool
	CriticalTasks []csdf.TaskID
	Nodes, Arcs   int
	// ArcsBuilt and ArcsReused report the incremental expansion work of
	// this round: constraint arcs recomputed from their buffer's phase
	// pairs vs. replayed from a previous round's block cache.
	ArcsBuilt, ArcsReused int
	// PairsTested counts the phase pairs this round's rebuilt buffer
	// blocks tested for usefulness (Theorem 2) to build ArcsBuilt.
	PairsTested int
	// HowardIterations sums the MCRP solver's policy-improvement rounds
	// over the strongly connected components this round re-solved: all of
	// them in the first round, then those with a task whose K changed. A
	// component whose solve met an infeasible circuit adds nothing.
	HowardIterations int
}

// KIterResult is the outcome of Algorithm 1: an optimal Evaluation plus
// the iteration trace.
type KIterResult struct {
	*Evaluation
	Trace      []IterStep
	Iterations int
}

const defaultMaxIterations = 10000

// maxTracedRounds caps how many K-Iter rounds get their own child span in a
// request trace.
const maxTracedRounds = 32

// roundNames names the traced rounds, round.1 to round.32, so recording a
// round builds no string.
var roundNames = func() (names [maxTracedRounds]string) {
	for i := range names {
		names[i] = "round." + strconv.Itoa(i+1)
	}
	return names
}()

// KIter computes the exact maximum throughput of g by Algorithm 1 of the
// paper: starting from K = [1,…,1], it repeatedly evaluates the minimum
// K-periodic period, applies the Theorem 4 optimality test to the critical
// circuit, and on failure bumps Kt ← lcm(Kt, q̄t) for every task t of the
// circuit. Every Kt stays a divisor of qt and grows strictly on failure,
// so the loop terminates — in the worst case at K = q, where the test
// always passes.
//
// Intermediate rounds run the float64 MCRP fast path; once the test passes
// the candidate circuit is certified exactly, and if certification reveals
// a different (truly critical) circuit the test is re-applied to it, so the
// final result is exact and carries Optimal = true.
//
// Infeasible Ks (possible on capacity-bounded graphs, whose 1-periodic LP
// may have no solution) are handled by treating the infeasibility
// certificate circuit as critical: if it passes the multiplicity condition
// the graph is declared dead (*DeadlockError), otherwise K grows and the
// loop continues.
func KIter(g *csdf.Graph, opt Options) (*KIterResult, error) {
	return KIterCtx(context.Background(), g, opt)
}

// KIterCtx is KIter with cancellation: the context is polled at every
// Algorithm 1 round and inside each round's bi-valued-graph expansion, so a
// long analysis stops promptly once the caller gives up. On cancellation
// the partial result (the trace of completed rounds) is returned together
// with the context's error.
//
// The bi-valued graph is solved one task-level strongly connected
// component at a time: every circuit lies inside one component, and the
// partition is fixed for the whole call, since K never changes the task
// graph. The first round solves every component; each later round
// re-solves only the components holding a task whose K the previous round
// bumped — the tasks of one critical circuit, so one component — and
// keeps every other component's answer. The final answer is certified
// exactly against every component.
func KIterCtx(ctx context.Context, g *csdf.Graph, opt Options) (*KIterResult, error) {
	f, err := csdf.NewFacts(g)
	if err != nil {
		return nil, err
	}
	return KIterFacts(ctx, f, opt)
}

// KIterFacts is KIterCtx on the graph f describes, using its repetition
// vector and components instead of computing them again.
func KIterFacts(ctx context.Context, f *csdf.Facts, opt Options) (*KIterResult, error) {
	if _, err := f.Repetition(); err != nil {
		return nil, err
	}
	w := getWorkspace()
	res, err := w.kiter(ctx, f, ones(f.Graph().NumTasks()), opt)
	w.release()
	return res, err
}

// kiter runs Algorithm 1 in w on f's graph from the periodicity vector
// start, which KIterFacts sets to all ones; every start whose entries
// divide q reaches the same certified Ω, since Theorem 4's test depends
// only on the final K and the critical circuit. Everything kiter returns is copied out of
// the workspace, so the caller may release w as soon as it returns.
func (w *workspace) kiter(ctx context.Context, f *csdf.Facts, start []int64, opt Options) (*KIterResult, error) {
	K := append([]int64(nil), start...)
	maxIter := opt.MaxIterations
	if maxIter <= 0 {
		maxIter = defaultMaxIterations
	}
	inner := opt
	inner.SkipCertify = true

	// The workspace's builder and MCRP solver serve every round: arc
	// blocks whose endpoint K survived the latest updateK are replayed
	// instead of re-enumerated, components whose tasks kept their K keep
	// their answer, the solver's O(n) working arrays are recycled, and a
	// re-solved component's Howard run starts from its previous final
	// policy wherever the graph around it is unchanged. Across
	// evaluations only the backing arrays carry over.
	result := &KIterResult{}
	b, solver := &w.b, &w.s
	if err := b.reset(f, K, inner); err != nil {
		result.Iterations = 1
		return result, err
	}
	b.ctx = ctx
	q := b.q
	span := telemetry.FromContext(ctx)
	defer func() {
		span.AddInt("iterations", int64(result.Iterations))
		var built, reused int64
		for _, step := range result.Trace {
			built += int64(step.ArcsBuilt)
			reused += int64(step.ArcsReused)
		}
		span.AddInt("arcsBuilt", built)
		span.AddInt("arcsReused", reused)
	}()
	for iter := 0; iter < maxIter; iter++ {
		if err := ctx.Err(); err != nil {
			return result, err
		}
		result.Iterations = iter + 1
		if iter > 0 {
			if err := b.setK(K); err != nil {
				return result, err
			}
		}
		roundStart := time.Now()
		ev, err := resolve(ctx, b, solver, inner)
		// Record per-round phases for the first rounds only: a
		// slowly-converging instance would otherwise bloat the trace tree
		// with thousands of children.
		if span != nil && iter < maxTracedRounds {
			span.Record(roundNames[iter], roundStart, time.Since(roundStart))
		}
		if err != nil {
			return result, err
		}
		if ev.deadlock != nil {
			tasks := uniqueTasks(ev.deadlock)
			result.Trace = append(result.Trace, IterStep{
				K:                append([]int64(nil), K...),
				Infeasible:       true,
				CriticalTasks:    tasks,
				Nodes:            b.nodes,
				Arcs:             b.arcs,
				ArcsBuilt:        b.stats.arcsBuilt,
				ArcsReused:       b.stats.arcsReused,
				PairsTested:      b.stats.pairsTested,
				HowardIterations: ev.howard,
			})
			if optimalityTest(tasks, q, K) {
				return result, &DeadlockError{K: append([]int64(nil), K...), Tasks: tasks}
			}
			updateK(K, tasks, q, opt)
			continue
		}

		tasks := uniqueTasks(ev.critical())
		result.Trace = append(result.Trace, IterStep{
			K:                append([]int64(nil), K...),
			Period:           ev.res.Ratio,
			CriticalTasks:    tasks,
			Nodes:            b.nodes,
			Arcs:             b.arcs,
			ArcsBuilt:        b.stats.arcsBuilt,
			ArcsReused:       b.stats.arcsReused,
			PairsTested:      b.stats.pairsTested,
			HowardIterations: ev.howard,
		})
		if !optimalityTest(tasks, q, K) {
			updateK(K, tasks, q, opt)
			continue
		}

		// The candidate circuit passes; make the circuit exact before
		// trusting the verdict.
		if !opt.SkipCertify {
			// Certification can be cancelled mid-relaxation; keep the
			// partial-trace contract on that path too.
			if err := ev.certify(ctx, solver); err != nil {
				return result, err
			}
			if ev.deadlock != nil {
				dTasks := uniqueTasks(ev.deadlock)
				if optimalityTest(dTasks, q, K) {
					return result, &DeadlockError{K: append([]int64(nil), K...), Tasks: dTasks}
				}
				updateK(K, dTasks, q, opt)
				continue
			}
			tasks = uniqueTasks(ev.critical())
			if !optimalityTest(tasks, q, K) {
				// The certified circuit differs and fails the test.
				updateK(K, tasks, q, opt)
				continue
			}
		}
		out := ev.toEvaluation()
		out.Optimal = true
		result.Evaluation = out
		return result, nil
	}
	return nil, fmt.Errorf("kperiodic: K-Iter did not converge within %d iterations", maxIter)
}

// ones returns the all-ones periodicity vector of n tasks.
func ones(n int) []int64 {
	K := make([]int64, n)
	for i := range K {
		K[i] = 1
	}
	return K
}

// updateK applies the paper's periodicity bump: for every task t of the
// critical circuit, Kt ← lcm(Kt, q̄t) with q̄t = qt/gcd{qt′ : t′ ∈ c}.
// With FullUpdate (ablation) the circuit's tasks jump straight to Kt = qt.
func updateK(K []int64, tasks []csdf.TaskID, q []int64, opt Options) {
	if opt.FullUpdate {
		for _, t := range tasks {
			K[t] = q[t]
		}
		return
	}
	var g int64
	for _, t := range tasks {
		g = rat.Gcd(g, q[t])
	}
	for _, t := range tasks {
		qBar := q[t] / g
		// Both K[t] and q̄t divide qt, so the lcm fits.
		l, _ := rat.Lcm(K[t], qBar)
		K[t] = l
	}
}
