// Package symbexec implements throughput evaluation by symbolic execution
// — the exact state-space baseline of Ghamarian et al. [8] for SDFG,
// extended to CSDFG by Stuijk et al. [16] — that the paper compares K-Iter
// against in Tables 1 and 2.
//
// The graph is executed self-timed (as soon as possible, Figure 3): every
// task starts its next phase the moment its input tokens are available,
// consuming tokens at the start of a phase and producing at its end, with
// the phases of a task executing in order without overlap. Because a
// consistent CSDFG has a finite state space, the execution eventually
// revisits a state; the tokens-per-time of the detected cycle is the exact
// maximum throughput. The state space is exponential in the repetition
// vector, which is precisely the scalability weakness K-Iter removes —
// budget options make the blow-up observable instead of fatal.
package symbexec

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"

	"kiter/internal/csdf"
	"kiter/internal/rat"
)

// Options tunes the execution.
type Options struct {
	// MaxEvents bounds completed firings (0 = 50 000 000).
	MaxEvents int64
	// MaxStates bounds stored recurrence-detection states (0 = 2 000 000).
	MaxStates int
	// TraceHorizon, when positive, records every firing starting before
	// this time into Result.Trace (for Gantt rendering, Figure 3).
	TraceHorizon int64
	// Reference selects the task whose iterations are counted (default:
	// task 0). Any task gives the same throughput by Theorem 1.
	Reference csdf.TaskID
}

// Firing is one recorded execution ⟨t_phase, n⟩ of the ASAP schedule.
type Firing struct {
	Task     csdf.TaskID
	Phase    int // 1-based
	Start    int64
	Duration int64
}

// Result reports the detected periodic regime.
type Result struct {
	// Period is the exact graph-iteration period Ω (time per execution of
	// every task t exactly qt times).
	Period rat.Rat
	// Throughput is 1/Period.
	Throughput rat.Rat
	// TransientTime is the time at which the recurrent window begins.
	TransientTime int64
	// CycleTime is the length of the recurrent window.
	CycleTime int64
	// Events counts completed firings; StatesStored counts snapshots.
	Events       int64
	StatesStored int
	// Trace holds the firings recorded below TraceHorizon.
	Trace []Firing
}

// ErrDeadlock reports that the self-timed execution reached a state where
// no task can ever fire again.
var ErrDeadlock = errors.New("symbexec: execution deadlocks")

// ErrBudget reports that the state space exceeded the exploration budget
// before a recurrence was found (the "> 1 day" rows of Table 2).
var ErrBudget = errors.New("symbexec: exploration budget exhausted")

const (
	defaultMaxEvents = 50_000_000
	defaultMaxStates = 2_000_000
)

type taskState struct {
	phase     int   // next phase to fire, 0-based
	busy      bool  // a firing is in flight
	remaining int64 // completion time − now, valid when busy
	iters     int64 // completed iterations
}

type engine struct {
	g        *csdf.Graph
	opt      Options
	ctx      context.Context // polled in the event loop; nil = never cancelled
	tokens   []int64         // per buffer
	tasks    []taskState
	inBufs   [][]csdf.BufferID // buffers consumed by task
	outBufs  [][]csdf.BufferID // buffers produced by task
	now      int64
	events   int64
	refDone  bool // reference task completed an iteration since last snapshot
	seen     map[string]seenInfo
	trace    []Firing
	q        []int64
	maxEv    int64
	maxState int
	steps    int // event-loop rounds, for amortized cancellation polls
}

type seenInfo struct {
	time  int64
	iters int64
}

// Run computes the exact maximum throughput of g by symbolic execution.
//
// Strongly connected graphs are executed directly until a state recurrence
// is found. Otherwise the graph is decomposed into its strongly connected
// components: inter-component buffers are unbounded and therefore never
// throttle self-timed execution in the long run, so the graph period is
// the maximum of the components' isolated periods after normalization to
// the global repetition vector (each component is exponentially cheaper to
// execute than the whole, and components with unbounded mutual drift would
// otherwise never revisit a state).
func Run(g *csdf.Graph, opt Options) (*Result, error) {
	return RunCtx(context.Background(), g, opt)
}

// RunCtx is Run with cancellation: the context is polled inside the
// self-timed event loop (every few hundred rounds), so a state-space
// explosion stops promptly once the caller gives up instead of running to
// its event budget.
func RunCtx(ctx context.Context, g *csdf.Graph, opt Options) (*Result, error) {
	f, err := csdf.NewFacts(g)
	if err != nil {
		return nil, err
	}
	return RunFacts(ctx, f, opt)
}

// RunFacts is RunCtx on the graph f describes, using its repetition vector
// and strongly connected components instead of computing them again.
func RunFacts(ctx context.Context, f *csdf.Facts, opt Options) (*Result, error) {
	g := f.Graph()
	q, err := f.Repetition()
	if err != nil {
		return nil, err
	}
	if int(opt.Reference) < 0 || int(opt.Reference) >= g.NumTasks() {
		return nil, fmt.Errorf("symbexec: reference task %d out of range", opt.Reference)
	}
	comps := f.SCCs()
	if comps.Len() > 1 {
		return runDecomposed(ctx, g, q, comps, opt)
	}
	return runRecurrence(ctx, g, q, opt)
}

// runRecurrence executes g, whose repetition vector is q, self-timed until
// a state recurrence reveals the periodic regime. The self-timed state
// space must be bounded (guaranteed for strongly connected consistent
// graphs); otherwise the exploration budget trips.
func runRecurrence(ctx context.Context, g *csdf.Graph, q []int64, opt Options) (*Result, error) {
	e := &engine{
		g:        g,
		opt:      opt,
		ctx:      ctx,
		tokens:   make([]int64, g.NumBuffers()),
		tasks:    make([]taskState, g.NumTasks()),
		inBufs:   make([][]csdf.BufferID, g.NumTasks()),
		outBufs:  make([][]csdf.BufferID, g.NumTasks()),
		seen:     make(map[string]seenInfo),
		q:        q,
		maxEv:    opt.MaxEvents,
		maxState: opt.MaxStates,
	}
	if e.maxEv <= 0 {
		e.maxEv = defaultMaxEvents
	}
	if e.maxState <= 0 {
		e.maxState = defaultMaxStates
	}
	for i := 0; i < g.NumBuffers(); i++ {
		b := g.Buffer(csdf.BufferID(i))
		e.tokens[i] = b.Initial
		e.outBufs[b.Src] = append(e.outBufs[b.Src], csdf.BufferID(i))
		e.inBufs[b.Dst] = append(e.inBufs[b.Dst], csdf.BufferID(i))
	}
	return e.run()
}

func (e *engine) run() (*Result, error) {
	ref := csdf.TaskID(e.opt.Reference)
	for {
		// Amortized cancellation poll: one ctx.Err() per 256 event-loop
		// rounds (starting with the first, so a dead context is caught
		// before any work) keeps the overhead invisible next to the
		// O(tasks) scan each round already performs.
		if e.steps++; e.ctx != nil && e.steps&0xff == 1 {
			if err := e.ctx.Err(); err != nil {
				return nil, err
			}
		}
		// Snapshot at reference-iteration boundaries, before re-arming:
		// the sampling instant is deterministic, so in the periodic
		// regime the sampled state recurs.
		if e.refDone {
			e.refDone = false
			key := e.encode()
			if prev, ok := e.seen[key]; ok {
				return e.finish(prev)
			}
			if len(e.seen) >= e.maxState {
				return nil, ErrBudget
			}
			e.seen[key] = seenInfo{time: e.now, iters: e.tasks[ref].iters}
		}
		// Start every firing that can start; zero-duration firings
		// complete inline, so loop to a fixpoint.
		for e.startAll() {
		}
		if e.events > e.maxEv {
			return nil, ErrBudget
		}
		// Advance to the next completion.
		dt := int64(-1)
		for i := range e.tasks {
			if e.tasks[i].busy && (dt < 0 || e.tasks[i].remaining < dt) {
				dt = e.tasks[i].remaining
			}
		}
		if dt < 0 {
			return nil, ErrDeadlock
		}
		e.now += dt
		for i := range e.tasks {
			t := &e.tasks[i]
			if !t.busy {
				continue
			}
			t.remaining -= dt
			if t.remaining == 0 {
				e.complete(csdf.TaskID(i))
			}
		}
		if e.events > e.maxEv {
			return nil, ErrBudget
		}
	}
}

// canStart reports whether task t's next phase has all input tokens.
func (e *engine) canStart(t csdf.TaskID) bool {
	ts := &e.tasks[t]
	if ts.busy {
		return false
	}
	for _, bid := range e.inBufs[t] {
		b := e.g.Buffer(bid)
		if e.tokens[bid] < b.Out[ts.phase] {
			return false
		}
	}
	return true
}

// start consumes input tokens and either arms the firing (d > 0) or
// completes it inline (d = 0).
func (e *engine) start(t csdf.TaskID) {
	ts := &e.tasks[t]
	for _, bid := range e.inBufs[t] {
		b := e.g.Buffer(bid)
		e.tokens[bid] -= b.Out[ts.phase]
	}
	d := e.g.Task(t).Durations[ts.phase]
	if e.opt.TraceHorizon > 0 && e.now < e.opt.TraceHorizon {
		e.trace = append(e.trace, Firing{Task: t, Phase: ts.phase + 1, Start: e.now, Duration: d})
	}
	if d == 0 {
		e.produce(t)
		e.advancePhase(t)
		e.events++
		return
	}
	ts.busy = true
	ts.remaining = d
}

// startAll fires everything currently enabled; returns whether anything
// started (zero-duration completions may enable more).
func (e *engine) startAll() bool {
	any := false
	for i := range e.tasks {
		for e.canStart(csdf.TaskID(i)) {
			e.start(csdf.TaskID(i))
			any = true
			if e.tasks[i].busy {
				break // d > 0: task occupied until completion
			}
			if e.events > e.maxEv {
				return false
			}
		}
	}
	return any
}

func (e *engine) produce(t csdf.TaskID) {
	phase := e.tasks[t].phase
	for _, bid := range e.outBufs[t] {
		b := e.g.Buffer(bid)
		e.tokens[bid] += b.In[phase]
	}
}

func (e *engine) advancePhase(t csdf.TaskID) {
	ts := &e.tasks[t]
	ts.phase++
	if ts.phase == e.g.Task(t).Phases() {
		ts.phase = 0
		ts.iters++
		if t == e.opt.Reference {
			e.refDone = true
		}
	}
}

func (e *engine) complete(t csdf.TaskID) {
	ts := &e.tasks[t]
	ts.busy = false
	e.produce(t)
	e.advancePhase(t)
	e.events++
}

// encode serializes the time-invariant state: buffer tokens, per-task
// phase and remaining times.
func (e *engine) encode() string {
	buf := make([]byte, 0, 8*(len(e.tokens)+2*len(e.tasks)))
	var tmp [8]byte
	for _, v := range e.tokens {
		binary.LittleEndian.PutUint64(tmp[:], uint64(v))
		buf = append(buf, tmp[:]...)
	}
	for i := range e.tasks {
		t := &e.tasks[i]
		rem := int64(-1)
		if t.busy {
			rem = t.remaining
		}
		binary.LittleEndian.PutUint64(tmp[:], uint64(t.phase))
		buf = append(buf, tmp[:]...)
		binary.LittleEndian.PutUint64(tmp[:], uint64(rem))
		buf = append(buf, tmp[:]...)
	}
	return string(buf)
}

func (e *engine) finish(prev seenInfo) (*Result, error) {
	ref := int(e.opt.Reference)
	dt := e.now - prev.time
	dc := e.tasks[ref].iters - prev.iters
	if dc <= 0 || dt <= 0 {
		// The state repeated without the reference progressing in time:
		// only possible when nothing useful happens — a deadlock in
		// disguise (dt=0 cannot occur: snapshots are taken at most once
		// per time instant between completions).
		return nil, ErrDeadlock
	}
	// Ω = Δt·q_ref / Δc graph-iteration time.
	var period rat.Rat
	if num, ok := rat.MulCheck(dt, e.q[ref]); ok {
		period = rat.NewRat(num, dc)
	} else {
		period = rat.FromInt(dt).Mul(rat.FromInt(e.q[ref])).Div(rat.FromInt(dc))
	}
	return &Result{
		Period:        period,
		Throughput:    period.Inv(),
		TransientTime: prev.time,
		CycleTime:     dt,
		Events:        e.events,
		StatesStored:  len(e.seen),
		Trace:         e.trace,
	}, nil
}
