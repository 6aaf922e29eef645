// Package faultinject is a dependency-free failpoint harness: named
// injection points compiled into the serving path (cache backend,
// dispatcher forward, solver entry) that do nothing until a fault spec is
// activated, then inject latency, errors or panics so the resilience
// machinery can be exercised deterministically — in chaos e2e tests and in
// live fleets via `kiterd -chaos` or the KITER_CHAOS environment variable.
//
// A spec is a comma-separated list of clauses:
//
//	point:mode[:arg[:count]]
//
// where mode is one of
//
//	error          Fire returns an injected error (wrapping ErrInjected)
//	panic          Fire panics with an injected message
//	latency        Fire sleeps for arg (a time.Duration, e.g. 200ms)
//
// and count, when present, caps how many times the clause fires before it
// burns out (absent = unlimited). Injection is deterministic — the first
// count calls fire, later ones pass — because chaos tests must converge on
// the same envelope every run. Example:
//
//	cache.get:error,dispatch.forward:error::2,solver.entry:latency:50ms
//
// When no spec is active, Fire is one atomic load and a nil return, so the
// failpoints stay in release builds at negligible cost.
package faultinject

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Well-known injection points wired into the serving path. Points are
// plain strings — subsystems may fire dynamic names too (the engine fires
// "solver.<method>" per step of the default method's chain) — these
// constants just name the seams the chaos scenarios target.
const (
	// PointSolverEntry fires at the top of every job evaluation, inside the
	// worker's panic isolation: a panic here becomes a job error, never a
	// crashed process.
	PointSolverEntry = "solver.entry"
	// PointCacheGet / PointCachePut fire in the disk cache backend; an
	// injected error degrades to a miss (Get) or a dropped write (Put),
	// matching the store's corruption philosophy.
	PointCacheGet = "cache.get"
	PointCachePut = "cache.put"
	// PointForward fires before each cluster forward attempt (initial and
	// retry), upstream of the HTTP call.
	PointForward = "dispatch.forward"
)

// ErrInjected is the sentinel wrapped by every error-mode injection, so
// callers (tests, log scrapers) can tell injected faults from real ones.
var ErrInjected = errors.New("faultinject: injected fault")

type mode int

const (
	modeError mode = iota
	modePanic
	modeLatency
)

// failpoint is one armed clause.
type failpoint struct {
	point string
	mode  mode
	delay time.Duration // latency mode only
	// unlimited clauses skip the budget bookkeeping; otherwise remaining is
	// decremented atomically so concurrent callers cannot overshoot the cap
	// (it may go negative; only non-negative post-decrement values fire).
	unlimited bool
	remaining atomic.Int64
	fired     atomic.Uint64
}

// Set is a parsed, armed fault spec. Activate installs it globally.
type Set struct {
	points map[string]*failpoint
}

// active holds the installed Set; nil means every Fire is a no-op.
var active atomic.Pointer[Set]

// Parse compiles a spec string into a Set. An empty spec yields nil (no
// faults), which Activate treats as "disarm".
func Parse(spec string) (*Set, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	s := &Set{points: make(map[string]*failpoint)}
	for _, clause := range strings.Split(spec, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		parts := strings.Split(clause, ":")
		if len(parts) < 2 || len(parts) > 4 {
			return nil, fmt.Errorf("faultinject: clause %q: want point:mode[:arg[:count]]", clause)
		}
		fp := &failpoint{point: parts[0], unlimited: true}
		if fp.point == "" {
			return nil, fmt.Errorf("faultinject: clause %q: empty point", clause)
		}
		switch parts[1] {
		case "error":
			fp.mode = modeError
		case "panic":
			fp.mode = modePanic
		case "latency":
			fp.mode = modeLatency
		default:
			return nil, fmt.Errorf("faultinject: clause %q: unknown mode %q (want error, panic or latency)", clause, parts[1])
		}
		if len(parts) >= 3 && parts[2] != "" {
			if fp.mode != modeLatency {
				return nil, fmt.Errorf("faultinject: clause %q: mode %q takes no argument", clause, parts[1])
			}
			d, err := time.ParseDuration(parts[2])
			if err != nil || d < 0 {
				return nil, fmt.Errorf("faultinject: clause %q: bad latency %q", clause, parts[2])
			}
			fp.delay = d
		} else if fp.mode == modeLatency {
			return nil, fmt.Errorf("faultinject: clause %q: latency needs a duration argument", clause)
		}
		if len(parts) == 4 {
			n, err := strconv.Atoi(parts[3])
			if err != nil || n < 1 {
				return nil, fmt.Errorf("faultinject: clause %q: bad count %q", clause, parts[3])
			}
			fp.unlimited = false
			fp.remaining.Store(int64(n))
		}
		if _, dup := s.points[fp.point]; dup {
			return nil, fmt.Errorf("faultinject: point %q armed twice", fp.point)
		}
		s.points[fp.point] = fp
	}
	if len(s.points) == 0 {
		return nil, nil
	}
	return s, nil
}

// Activate installs s as the process-wide fault set, replacing whatever
// was active. Activate(nil) disarms every failpoint. Tests that arm faults
// must defer Activate(nil) so later tests run clean.
func Activate(s *Set) { active.Store(s) }

// Active reports whether any fault set is installed.
func Active() bool { return active.Load() != nil }

// Fire triggers the failpoint named point. With no armed clause for the
// point (or no active set) it returns nil immediately. Otherwise it
// injects the clause's fault: sleeps and returns nil (latency), returns an
// injected error (error), or panics (panic). A count-capped clause stops
// injecting once its budget is spent.
func Fire(point string) error {
	s := active.Load()
	if s == nil {
		return nil
	}
	fp := s.points[point]
	if fp == nil {
		return nil
	}
	// Spend one unit of the fire budget.
	if !fp.unlimited && fp.remaining.Add(-1) < 0 {
		return nil
	}
	fp.fired.Add(1)
	switch fp.mode {
	case modeLatency:
		time.Sleep(fp.delay)
		return nil
	case modePanic:
		panic(fmt.Sprintf("faultinject: injected panic at %s", point))
	default:
		return fmt.Errorf("faultinject: injected error at %s: %w", point, ErrInjected)
	}
}

// Fired reports how many times the named point has injected under the
// currently active set (0 when the point is unarmed or no set is active).
func Fired(point string) uint64 {
	s := active.Load()
	if s == nil {
		return 0
	}
	fp := s.points[point]
	if fp == nil {
		return 0
	}
	return fp.fired.Load()
}

// Points lists the armed point names of the active set, for startup logs.
func Points() []string {
	s := active.Load()
	if s == nil {
		return nil
	}
	out := make([]string, 0, len(s.points))
	for p := range s.points {
		out = append(out, p)
	}
	return out
}
