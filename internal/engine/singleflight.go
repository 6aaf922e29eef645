package engine

import (
	"context"
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// flightGroup coalesces concurrent submissions of the same cache key onto
// one in-flight evaluation. Unlike the classical singleflight, waiters are
// reference-counted against a per-call job context: when every submitter
// has abandoned (their contexts cancelled), the job context is cancelled
// too, so an evaluation nobody is waiting for stops instead of running to
// completion — the cancellation propagates through KIterCtx / RunCtx into
// the analysis inner loops.
type flightGroup struct {
	mu    sync.Mutex
	calls map[string]*flightCall
	// finished counts finished calls per key stripe; see generation.
	finished [flightStripes]atomic.Uint64
	seed     maphash.Seed
}

// flightStripes is the number of generation counters. A counter moved by
// another key only costs one spare cache lookup, so a few hundred keep
// that rare without a per-key map.
const flightStripes = 256

type flightCall struct {
	key string
	// jobCtx governs the evaluation; cancel fires when waiters hit zero.
	jobCtx context.Context
	cancel context.CancelFunc
	// done is closed by finish, after res/err are set.
	done chan struct{}
	res  *Result
	err  error
	// waiters counts submitters still interested (guarded by group mu).
	waiters int
	// finished guards against double completion (guarded by group mu).
	finished bool
}

func newFlightGroup() *flightGroup {
	return &flightGroup{calls: make(map[string]*flightCall), seed: maphash.MakeSeed()}
}

// generation returns how many calls have finished in key's stripe. A
// submission reads it before its cache lookup. If it has moved by the time
// the submission leads a new call, a call for the same key may have
// stored its result and finished in between — after the lookup missed and
// before the join, which then found no call to share — so the new leader
// must look in the cache again.
func (g *flightGroup) generation(key string) uint64 {
	return g.finished[g.stripe(key)].Load()
}

func (g *flightGroup) stripe(key string) uint64 {
	return maphash.String(g.seed, key) % flightStripes
}

// join returns the in-flight call for key, creating one when absent. The
// second return reports leadership: the leader is responsible for getting
// the job evaluated or dispatched. Every joiner must eventually call either
// wait (consuming the result) or leave (abandoning it).
func (g *flightGroup) join(key string) (*flightCall, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.calls[key]; ok {
		c.waiters++
		return c, false
	}
	ctx, cancel := context.WithCancel(context.Background())
	c := &flightCall{
		key:     key,
		jobCtx:  ctx,
		cancel:  cancel,
		done:    make(chan struct{}),
		waiters: 1,
	}
	g.calls[key] = c
	return c, true
}

// leave abandons a call. When the last waiter leaves an unfinished call,
// the job context is cancelled and the key is released so that later
// submissions start a fresh evaluation instead of inheriting a dying one.
func (g *flightGroup) leave(c *flightCall) {
	g.mu.Lock()
	defer g.mu.Unlock()
	c.waiters--
	if c.waiters > 0 || c.finished {
		return
	}
	c.cancel()
	if g.calls[c.key] == c {
		delete(g.calls, c.key)
	}
}

// finish publishes the outcome of a call and releases its key. Safe to
// call at most once per call; the job context is cancelled to free its
// timer/goroutine resources.
func (g *flightGroup) finish(c *flightCall, res *Result, err error) {
	g.mu.Lock()
	if c.finished {
		g.mu.Unlock()
		return
	}
	c.finished = true
	if g.calls[c.key] == c {
		delete(g.calls, c.key)
	}
	// Counted under mu, together with the release: a submission whose join
	// finds the key gone also sees the new generation.
	g.finished[g.stripe(c.key)].Add(1)
	g.mu.Unlock()
	c.res, c.err = res, err
	c.cancel()
	close(c.done)
}
