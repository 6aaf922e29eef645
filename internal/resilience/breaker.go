// Package resilience holds the fault-tolerance primitives shared by the
// serving stack: a consecutive-failure circuit breaker (internal/cluster
// runs one per peer) and queue-wait-based admission control (cmd/kiterd
// sheds requests whose estimated wait exceeds their deadline budget).
// Everything here is safe for concurrent use.
package resilience

import (
	"sync"
	"sync/atomic"
)

// BreakerState is a circuit breaker's position.
type BreakerState int32

const (
	// BreakerClosed: traffic flows; consecutive failures are counted.
	BreakerClosed BreakerState = iota
	// BreakerHalfOpen: one trial's worth of traffic is admitted after a
	// successful probe; its outcome closes or re-opens the breaker.
	BreakerHalfOpen
	// BreakerOpen: traffic is refused until an external probe half-opens.
	BreakerOpen
)

// String renders the state for stats and metric labels.
func (s BreakerState) String() string {
	switch s {
	case BreakerHalfOpen:
		return "half-open"
	case BreakerOpen:
		return "open"
	default:
		return "closed"
	}
}

// Breaker is a consecutive-failure circuit breaker. It has no internal
// timers: the owner drives every transition. Failure in Closed counts
// toward the threshold and opens at it; Failure in HalfOpen re-opens
// immediately (the trial failed); Success resets the count and closes from
// any state; HalfOpen moves Open → HalfOpen (call it when an out-of-band
// health probe succeeds). All methods are safe for concurrent use.
type Breaker struct {
	threshold int

	mu    sync.Mutex
	state BreakerState
	fails int

	opens atomic.Uint64
}

// NewBreaker builds a closed breaker that opens after threshold
// consecutive failures (minimum 1).
func NewBreaker(threshold int) *Breaker {
	if threshold < 1 {
		threshold = 1
	}
	return &Breaker{threshold: threshold}
}

// Allow reports whether traffic may pass: true unless the breaker is open.
func (b *Breaker) Allow() bool { return b.State() != BreakerOpen }

// State returns the current position.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Opens returns the cumulative number of closed/half-open → open
// transitions — the "breaker tripped" counter surfaced on stats.
func (b *Breaker) Opens() uint64 { return b.opens.Load() }

// Success records a successful call: the failure streak resets and the
// breaker closes (a half-open trial that succeeds ends the incident).
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails = 0
	b.state = BreakerClosed
}

// Failure records a failed call and returns true when this call tripped
// the breaker open (callers use the edge to schedule probing). In
// HalfOpen a single failure re-opens: the trial answered the question.
func (b *Breaker) Failure() (opened bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerOpen:
		return false
	case BreakerHalfOpen:
		return b.openLocked()
	default:
		b.fails++
		if b.fails >= b.threshold {
			return b.openLocked()
		}
		return false
	}
}

// HalfOpen admits a trial through an open breaker; no-op in any other
// state (a closed breaker must not regress to trialing).
func (b *Breaker) HalfOpen() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerOpen {
		b.state = BreakerHalfOpen
		b.fails = 0
	}
}

func (b *Breaker) openLocked() bool {
	b.state = BreakerOpen
	b.fails = 0
	b.opens.Add(1)
	return true
}
