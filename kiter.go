// Package kiter is a Go implementation of K-Iter, the optimal and fast
// throughput evaluation algorithm for Cyclo-Static Dataflow Graphs of
// Bodin, Munier-Kordon and Dupont de Dinechin (DAC 2016), together with
// the complete analysis stack the paper builds on and compares against:
//
//   - the CSDF/SDF graph model with consistency analysis and bounded-buffer
//     (back-pressure) modelling;
//   - exact K-periodic throughput evaluation for any periodicity vector K
//     via a bi-valued graph and a maximum cost-to-time ratio solver;
//   - the 1-periodic approximate method and the full-expansion (K = q)
//     optimal baseline;
//   - exact symbolic (self-timed) execution, the state-space baseline;
//   - feasible K-periodic schedule construction with validation, latency
//     and Gantt rendering;
//   - throughput-preserving buffer sizing;
//   - SDF3-flavoured XML and JSON interchange.
//
// # Quick start
//
//	g := kiter.NewGraph("pipeline")
//	a := g.AddTask("A", []int64{1, 2})            // two phases
//	b := g.AddSDFTask("B", 3)                     // one phase
//	g.AddBuffer("ab", a, b, []int64{2, 1}, []int64{1}, 0)
//	res, err := kiter.Throughput(g)               // exact, certified
//	fmt.Println(res.Period, res.Throughput)
//
// All analytical results are exact rationals (see the Rat type): the
// float64 fast path inside the MCRP solver is always certified by exact
// arithmetic before a result is returned.
package kiter

import (
	"context"
	"io"

	"kiter/internal/csdf"
	"kiter/internal/gen"
	"kiter/internal/kperiodic"
	"kiter/internal/rat"
	"kiter/internal/sched"
	"kiter/internal/sdf3x"
	"kiter/internal/sizing"
	"kiter/internal/symbexec"
)

// Core model types (see internal/csdf for full documentation).
type (
	// Graph is a Cyclo-Static Dataflow Graph.
	Graph = csdf.Graph
	// Task is a CSDF task (actor) with cyclically repeating phases.
	Task = csdf.Task
	// Buffer is a FIFO channel with cyclo-static rates.
	Buffer = csdf.Buffer
	// TaskID and BufferID are dense per-graph identifiers.
	TaskID   = csdf.TaskID
	BufferID = csdf.BufferID
	// Rat is an exact rational number; all periods and throughputs are
	// reported as Rats.
	Rat = rat.Rat
)

// Analysis types.
type (
	// Options tunes the K-periodic analyses.
	Options = kperiodic.Options
	// Evaluation is the result of a K-periodic throughput evaluation.
	Evaluation = kperiodic.Evaluation
	// Result is the outcome of the K-Iter algorithm: an optimal
	// Evaluation plus the iteration trace.
	Result = kperiodic.KIterResult
	// Schedule is a concrete feasible K-periodic schedule.
	Schedule = kperiodic.Schedule
	// SymbolicResult is the outcome of symbolic (self-timed) execution.
	SymbolicResult = symbexec.Result
	// SymbolicOptions bounds the symbolic state-space exploration.
	SymbolicOptions = symbexec.Options
	// Firing is one execution of an ASAP trace.
	Firing = symbexec.Firing
	// DeadlockError certifies that a graph admits no schedule.
	DeadlockError = kperiodic.DeadlockError
	// Gantt is a renderable schedule prefix.
	Gantt = sched.Gantt
	// SizingPoint is one sample of the throughput/buffering trade-off.
	SizingPoint = sizing.Point
)

// NewGraph returns an empty graph with the given name.
func NewGraph(name string) *Graph { return csdf.NewGraph(name) }

// Throughput computes the exact maximum throughput of g with the K-Iter
// algorithm (Algorithm 1 of the paper). The result is certified optimal.
func Throughput(g *Graph) (*Result, error) {
	return kperiodic.KIter(g, Options{})
}

// ThroughputWith is Throughput with explicit options.
func ThroughputWith(g *Graph, opt Options) (*Result, error) {
	return kperiodic.KIter(g, opt)
}

// ThroughputCtx is Throughput with cancellation: the context is polled in
// the K-Iter loop and inside each round's graph expansion, so a long
// analysis stops promptly once the caller gives up.
func ThroughputCtx(ctx context.Context, g *Graph, opt Options) (*Result, error) {
	return kperiodic.KIterCtx(ctx, g, opt)
}

// ThroughputSymbolicCtx is ThroughputSymbolic with cancellation.
func ThroughputSymbolicCtx(ctx context.Context, g *Graph, opt SymbolicOptions) (*SymbolicResult, error) {
	return symbexec.RunCtx(ctx, g, opt)
}

// Fingerprint returns the canonical structural hash of g as a hex string:
// two graphs share it exactly when they are structurally identical
// (names excluded). It is the memoization key used by the analysis engine
// behind the kiterd server.
func Fingerprint(g *Graph) string { return g.FingerprintHex() }

// ThroughputPeriodic runs the 1-periodic approximate method [Bodin et al.,
// ESTIMedia'13]: fast, but the returned throughput is only a lower bound
// unless Optimal is set on the result.
func ThroughputPeriodic(g *Graph, opt Options) (*Evaluation, error) {
	return kperiodic.Evaluate1(g, opt)
}

// ThroughputK evaluates the best K-periodic schedule for a fixed K.
func ThroughputK(g *Graph, K []int64, opt Options) (*Evaluation, error) {
	return kperiodic.EvaluateK(g, K, opt)
}

// ThroughputExpansion evaluates with K = q (classical full expansion) —
// always optimal, exponentially large on multirate graphs.
func ThroughputExpansion(g *Graph, opt Options) (*Evaluation, error) {
	return kperiodic.Expansion(g, opt)
}

// ThroughputSymbolic computes the exact throughput by self-timed symbolic
// execution (the baseline of Stuijk et al. [16]).
func ThroughputSymbolic(g *Graph, opt SymbolicOptions) (*SymbolicResult, error) {
	return symbexec.Run(g, opt)
}

// BuildSchedule materializes an optimal feasible K-periodic schedule for a
// fixed periodicity vector.
func BuildSchedule(g *Graph, K []int64, opt Options) (*Schedule, error) {
	return kperiodic.ScheduleK(g, K, opt)
}

// Simulate runs the self-timed execution for a finite horizon and returns
// the firings started before it (for Gantt charts) and whether the
// execution deadlocked.
func Simulate(g *Graph, horizon int64) ([]Firing, bool, error) {
	return symbexec.Simulate(g, horizon)
}

// GanttFromTrace renders an ASAP trace; GanttFromSchedule renders a
// K-periodic schedule prefix.
func GanttFromTrace(g *Graph, trace []Firing, title string) *Gantt {
	return sched.FromTrace(g, trace, title)
}

// GanttFromSchedule renders the first iterations of a K-periodic schedule.
func GanttFromSchedule(g *Graph, s *Schedule, iterations int64, title string) *Gantt {
	return sched.FromSchedule(g, s, iterations, title)
}

// IterationLatency returns the makespan of the first graph iteration of a
// schedule.
func IterationLatency(g *Graph, s *Schedule) Rat {
	return sched.IterationLatency(g, s)
}

// OptimalCapacities returns per-buffer capacities preserving the exact
// maximum throughput, with that optimal period.
func OptimalCapacities(g *Graph) ([]int64, Rat, error) {
	return sizing.OptimalCapacities(g, Options{})
}

// BufferTradeOff samples the throughput/buffering trade-off curve at the
// given uniform capacity scales.
func BufferTradeOff(g *Graph, scales []int64) ([]SizingPoint, error) {
	return sizing.TradeOff(g, scales, Options{})
}

// MinUniformScale searches the smallest uniform capacity slack reaching
// the target period.
func MinUniformScale(g *Graph, target Rat, maxScale int64) (int64, error) {
	return sizing.MinUniformScale(g, target, maxScale, Options{})
}

// ReadFile loads a graph from .json or .xml (SDF3-flavoured) files;
// WriteFile saves one.
func ReadFile(path string) (*Graph, error) {
	f, err := sdf3x.ReadFile(path)
	return f.Graph(), err
}

// WriteFile saves a graph to .json or .xml, dispatching on the extension.
func WriteFile(path string, g *Graph) error { return sdf3x.WriteFile(path, g) }

// ReadJSON and friends operate on streams.
func ReadJSON(r io.Reader) (*Graph, error)  { return sdf3x.ReadJSON(r) }
func WriteJSON(w io.Writer, g *Graph) error { return sdf3x.WriteJSON(w, g) }
func ReadXML(r io.Reader) (*Graph, error)   { return sdf3x.ReadXML(r) }
func WriteXML(w io.Writer, g *Graph) error  { return sdf3x.WriteXML(w, g) }

// Figure2 returns the paper's running example graph (Figure 2).
func Figure2() *Graph { return gen.Figure2() }

// SampleRateConverter returns the classical CD-to-DAT rate converter SDFG.
func SampleRateConverter() *Graph { return gen.SampleRateConverter() }

// NewRat builds an exact rational (panics on zero denominator); IntRat an
// integer-valued one.
func NewRat(num, den int64) Rat { return rat.NewRat(num, den) }

// IntRat returns v as an exact rational.
func IntRat(v int64) Rat { return rat.FromInt(v) }
