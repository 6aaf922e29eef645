// Package kperiodic implements the paper's primary contribution: throughput
// evaluation of Cyclo-Static Dataflow Graphs through K-periodic scheduling
// (Sections 3.1–3.5 of Bodin, Munier-Kordon, Dupont de Dinechin, DAC 2016).
//
// The entry points are:
//
//   - EvaluateK: the minimum period of a K-periodic schedule for a fixed
//     periodicity vector K, via the bi-valued graph / MCRP reduction of
//     Theorems 2 and 3;
//   - Evaluate1: the 1-periodic (periodic) method of [Bodin et al.,
//     ESTIMedia'13], the paper's approximate baseline (K = 1);
//   - Expansion: the classical full-expansion bound (K = q), the optimal
//     baseline the paper compares against;
//   - KIter: Algorithm 1 — iterate EvaluateK, growing K from the critical
//     circuit until the Theorem 4 optimality test passes. The result is the
//     exact maximum throughput of the graph.
//
// Throughput and periods are exact rationals. A graph iteration is the
// execution of every task t exactly qt times; the period Ω is the long-run
// time per graph iteration, and the throughput is 1/Ω.
package kperiodic

import (
	"fmt"
	"math/big"
	"slices"

	"kiter/internal/csdf"
	"kiter/internal/rat"
)

// Options tunes the evaluation.
type Options struct {
	// AutoConcurrency permits several executions of the same task to
	// overlap in time. The paper's model executes the phases of a task in
	// order (Section 2.1); the default (false) enforces this by adding an
	// implicit sequential self-buffer to every task, matching the
	// schedules of Figures 3–5.
	AutoConcurrency bool
	// SkipCertify accepts the float64 MCRP candidate without the exact
	// certification pass. K-Iter always certifies its final answer;
	// intermediate iterations run uncertified regardless.
	SkipCertify bool
	// MaxIterations bounds K-Iter rounds (0 = default 10000).
	MaxIterations int
	// FullUpdate makes K-Iter jump straight to Kt = q̄t-multiples for the
	// whole graph (the expansion ablation) instead of the paper's
	// per-circuit lcm update. Off by default.
	FullUpdate bool
	// MaxNodes, when positive, aborts an evaluation whose expanded
	// bi-valued graph would exceed this node count, with *ErrTooLarge.
	// This is the guard that turns the paper's "> 1 day" cases into a
	// clean report instead of an out-of-memory condition.
	MaxNodes int64
	// MaxPairs, when positive, bounds the number of (p, p′) phase pairs
	// enumerated during constraint generation (the dominating cost).
	MaxPairs int64
}

// ErrTooLarge reports that an expanded bi-valued graph exceeded the
// configured size budget before it could be solved.
type ErrTooLarge struct {
	Nodes, Pairs int64
}

func (e *ErrTooLarge) Error() string {
	return fmt.Sprintf("kperiodic: expanded graph too large (%d nodes, %d phase pairs exceed the configured budget)", e.Nodes, e.Pairs)
}

// PhaseRef identifies a node of the bi-valued graph: an expanded phase of
// a task. Phase is 1-based in 1 … Kt·ϕ(t); OriginalPhase and Repeat recover
// the phase index within an iteration and the iteration index within the
// periodicity window.
type PhaseRef struct {
	Task  csdf.TaskID
	Phase int // expanded phase index, 1-based
}

// Decompose splits the expanded phase index into the original phase
// (1 … ϕ(t)) and the repeat index (1 … Kt), given ϕ(t).
func (p PhaseRef) Decompose(phases int) (origPhase, repeat int) {
	return (p.Phase-1)%phases + 1, (p.Phase-1)/phases + 1
}

// before reports whether p precedes o in (task, phase) order, the order
// of the expanded graph's nodes.
func (p PhaseRef) before(o PhaseRef) bool {
	return p.Task < o.Task || p.Task == o.Task && p.Phase < o.Phase
}

// Evaluation is the outcome of a K-periodic throughput evaluation.
type Evaluation struct {
	// K is the periodicity vector used (copy).
	K []int64
	// LcmK is lcm(K).
	LcmK *big.Int
	// Period is Ω_G = Ω_G̃ / lcm(K), the minimum time per graph iteration
	// over all feasible K-periodic schedules (exact).
	Period rat.Rat
	// Throughput is 1/Period, in graph iterations per time unit (exact).
	Throughput rat.Rat
	// Critical is a critical circuit of the bi-valued graph, as expanded
	// phase references in traversal order.
	Critical []PhaseRef
	// CriticalTasks lists the distinct tasks on the critical circuit,
	// sorted by ID.
	CriticalTasks []csdf.TaskID
	// Optimal reports whether the Theorem 4 optimality test passed: the
	// throughput then equals the maximum reachable throughput of G.
	Optimal bool
	// Certified reports whether the MCRP result was exactly certified.
	Certified bool
	// Nodes and Arcs give the bi-valued graph size.
	Nodes, Arcs int
	// HowardIterations sums the policy-improvement rounds of the MCRP
	// solves behind this evaluation, one per strongly connected component
	// of the task graph; for K-Iter, those of its final round, which
	// re-solves only the components whose K changed.
	HowardIterations int
}

// TaskPeriod returns µt = Ω·Kt/qt, the steady-state period of task t in
// the evaluated schedule (time between execution n and n+Kt of a phase).
func (ev *Evaluation) TaskPeriod(t csdf.TaskID, q []int64) rat.Rat {
	return ev.Period.Mul(rat.NewRat(ev.K[t], q[t]))
}

// String summarizes the evaluation.
func (ev *Evaluation) String() string {
	opt := ""
	if ev.Optimal {
		opt = " (optimal)"
	}
	return fmt.Sprintf("Ω=%s Th=%s K=%v%s", ev.Period, ev.Throughput, ev.K, opt)
}

// DeadlockError reports that no K-periodic schedule exists for the final
// periodicity vector even though the Theorem 4 multiplicity condition holds
// on the infeasible circuit — the sub-graph induced by the circuit's tasks
// can never complete a full iteration: the graph deadlocks.
type DeadlockError struct {
	K     []int64
	Tasks []csdf.TaskID
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("kperiodic: graph deadlocks (certificate circuit over tasks %v at K=%v)", e.Tasks, e.K)
}

// ErrUnbounded is returned when the bi-valued graph has no circuit at all,
// which can only happen with AutoConcurrency: no cyclic dependency bounds
// the throughput.
var ErrUnbounded = fmt.Errorf("kperiodic: throughput unbounded (no circuit in the constraint graph)")

func uniqueTasks(refs []PhaseRef) []csdf.TaskID {
	if len(refs) == 0 {
		return nil
	}
	out := make([]csdf.TaskID, len(refs))
	for i, r := range refs {
		out[i] = r.Task
	}
	slices.Sort(out)
	return slices.Compact(out)
}
