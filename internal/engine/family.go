package engine

import (
	"context"
	"sync"
	"time"
)

// FamilyResult couples one family member's outcome with its index in the
// family. Exactly one of Result/Err is meaningful.
type FamilyResult struct {
	Index  int
	Result *Result
	Err    error
}

// FamilyConfig tunes one SubmitFamily call.
type FamilyConfig struct {
	// Width is the number of member goroutines, each submitting one
	// member at a time, so it bounds concurrent member submissions (<= 0
	// picks the batch default: 2·Workers; never more than the family
	// size). Width is clamped below MaxPending with headroom so a family
	// alone does not trip the engine's load shedding; concurrent traffic
	// sharing the pending budget can still push the engine over it, in
	// which case the affected members fail with ErrOverloaded like any
	// other submission.
	Width int
	// MemberTimeout bounds each member's submission individually (0 = no
	// per-member deadline) — the per-request budget of a server, applied
	// per scenario rather than to the family as a whole.
	MemberTimeout time.Duration
	// MemberContext, when set, derives each member's submission context
	// from the family context — the trace-sampling seam: a sweep server
	// attaches a scenario span to every Nth member so a sampled scenario
	// traces end-to-end while the rest pay nothing. It runs before
	// MemberTimeout wraps the context; returning ctx unchanged opts the
	// member out.
	MemberContext func(ctx context.Context, i int) context.Context
}

// SubmitFamily streams a family of n related requests through the engine —
// the submission pattern behind scenario sweeps and batch runs. build(i) is
// called once per member, in order, to produce the request (a build error
// fails that member without aborting the family); done is invoked exactly
// once per started member, in completion order, and is serialized — done
// implementations need no locking and may write to a stream directly.
//
// The members run on cfg.Width long-lived goroutines, each taking the next
// index, building and submitting it, and looping; a leader's evaluation
// then runs on a stack that earlier members have already grown.
//
// When ctx is cancelled, in-flight members fail with the context error,
// members not yet started are never built or submitted, and SubmitFamily
// returns ctx.Err() after the in-flight tail drains; members skipped this
// way get no done callback. A member that exceeds cfg.MemberTimeout fails
// alone with context.DeadlineExceeded without aborting the family.
func (e *Engine) SubmitFamily(ctx context.Context, n int, cfg FamilyConfig, build func(int) (*Request, error), done func(FamilyResult)) error {
	width := cfg.Width
	if width <= 0 {
		width = 2 * e.cfg.Workers
	}
	// Clamp to 3/4 of the pending budget: a family saturating MaxPending
	// exactly would make every concurrent /analyze submission shed load
	// for the family's whole duration. The headroom only lowers the odds —
	// other clients can still fill the remaining quarter and trip
	// ErrOverloaded for family members and themselves alike.
	if e.cfg.MaxPending > 0 {
		if budget := max(1, e.cfg.MaxPending-e.cfg.MaxPending/4); width > budget {
			width = budget
		}
	}
	width = min(max(width, 1), n)

	var (
		// mu hands out indices and serializes build, so requests are built
		// once each and in index order.
		mu     sync.Mutex
		next   int
		doneMu sync.Mutex
		wg     sync.WaitGroup
	)
	emit := func(r FamilyResult) {
		doneMu.Lock()
		defer doneMu.Unlock()
		done(r)
	}
	member := func() {
		defer wg.Done()
		for {
			// Checking ctx before taking each index is the cancellation
			// point: a disconnected sweep client leaves behind only the
			// members already in flight.
			mu.Lock()
			if next >= n || ctx.Err() != nil {
				mu.Unlock()
				return
			}
			i := next
			next++
			req, err := build(i)
			mu.Unlock()
			if err != nil {
				emit(FamilyResult{Index: i, Err: err})
				continue
			}
			res, err := e.submitMember(ctx, cfg, i, req)
			emit(FamilyResult{Index: i, Result: res, Err: err})
		}
	}
	for range width {
		wg.Add(1)
		go member()
	}
	wg.Wait()
	return ctx.Err()
}

// submitMember submits member i under its own context: MemberContext's
// derivation of ctx, bounded by MemberTimeout.
func (e *Engine) submitMember(ctx context.Context, cfg FamilyConfig, i int, req *Request) (*Result, error) {
	if cfg.MemberContext != nil {
		ctx = cfg.MemberContext(ctx, i)
	}
	if cfg.MemberTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.MemberTimeout)
		defer cancel()
	}
	return e.Submit(ctx, req)
}
