// Package sizing explores the throughput/buffering trade-off for CSDF
// graphs — the application domain of Stuijk et al. [16] that motivates the
// paper's fixed-buffer-size experiments (Table 2). It is built entirely on
// the public machinery of this repository: the reverse-buffer capacity
// encoding (csdf.WithCapacities), exact K-periodic throughput evaluation
// (kperiodic.KIter) and schedule backlog measurement (sched.BufferBacklog).
package sizing

import (
	"context"
	"errors"
	"fmt"

	"kiter/internal/csdf"
	"kiter/internal/kperiodic"
	"kiter/internal/rat"
	"kiter/internal/sched"
)

// Point is one sample of the throughput/buffering trade-off curve.
type Point struct {
	// Scale is the capacity slack factor applied to every buffer.
	Scale int64
	// TotalCapacity is the summed capacity over all buffers.
	TotalCapacity int64
	// Period is the exact optimal period at these capacities; the zero
	// Rat with Deadlocked=true means no schedule exists.
	Period     rat.Rat
	Deadlocked bool
}

// TradeOff evaluates the optimal period of g under uniformly scaled buffer
// capacities for every scale in scales (ascending recommended). The
// unbounded graph must be live.
func TradeOff(g *csdf.Graph, scales []int64, opt kperiodic.Options) ([]Point, error) {
	var out []Point
	for _, s := range scales {
		bounded, err := g.ScaleCapacities(s).WithCapacities()
		if err != nil {
			return nil, err
		}
		p := Point{Scale: s}
		for _, b := range g.Buffers() {
			p.TotalCapacity += s*(b.TotalIn()+b.TotalOut()) + b.Initial
		}
		res, err := kperiodic.KIter(bounded, opt)
		var de *kperiodic.DeadlockError
		switch {
		case err == nil:
			p.Period = res.Period
		case errors.As(err, &de):
			p.Deadlocked = true
		default:
			return nil, fmt.Errorf("sizing: scale %d: %w", s, err)
		}
		out = append(out, p)
	}
	return out, nil
}

// OptimalCapacities returns per-buffer capacities that preserve the
// unbounded graph's exact maximum throughput, together with that optimal
// period. The capacities are the peak storage of an optimal K-periodic
// schedule (measured over a window of graph iterations with one extra
// warm-up iteration for safety), so they are feasible by construction —
// generally much tighter than worst-case bounds.
func OptimalCapacities(g *csdf.Graph, opt kperiodic.Options) ([]int64, rat.Rat, error) {
	return OptimalCapacitiesCtx(context.Background(), g, opt)
}

// OptimalCapacitiesCtx is OptimalCapacities with cancellation (through the
// underlying K-Iter and schedule construction), which share one Facts.
func OptimalCapacitiesCtx(ctx context.Context, g *csdf.Graph, opt kperiodic.Options) ([]int64, rat.Rat, error) {
	f, err := csdf.NewFacts(g)
	if err != nil {
		return nil, rat.Rat{}, err
	}
	res, err := kperiodic.KIterFacts(ctx, f, opt)
	if err != nil {
		return nil, rat.Rat{}, err
	}
	s, err := kperiodic.ScheduleKFacts(ctx, f, res.K, opt)
	if err != nil {
		return nil, rat.Rat{}, err
	}
	peaks := sched.BufferBacklog(g, s, 3)
	return peaks, res.Period, nil
}

// MinUniformScale performs a dichotomic search for the smallest capacity
// slack factor in [1, maxScale] whose optimal period is at most target.
// It returns the scale, or an error when even maxScale misses the target.
func MinUniformScale(g *csdf.Graph, target rat.Rat, maxScale int64, opt kperiodic.Options) (int64, error) {
	meets := func(s int64) (bool, error) {
		bounded, err := g.ScaleCapacities(s).WithCapacities()
		if err != nil {
			return false, err
		}
		res, err := kperiodic.KIter(bounded, opt)
		var de *kperiodic.DeadlockError
		if errors.As(err, &de) {
			return false, nil
		}
		if err != nil {
			return false, err
		}
		return res.Period.Cmp(target) <= 0, nil
	}
	ok, err := meets(maxScale)
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, fmt.Errorf("sizing: no scale ≤ %d reaches period %s", maxScale, target)
	}
	lo, hi := int64(1), maxScale // invariant: hi meets the target
	for lo < hi {
		mid := lo + (hi-lo)/2
		ok, err := meets(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return hi, nil
}

// ApplyCapacities clones g, sets the given per-buffer capacities and
// returns the reverse-buffer-encoded graph ready for analysis.
func ApplyCapacities(g *csdf.Graph, caps []int64) (*csdf.Graph, error) {
	if len(caps) != g.NumBuffers() {
		return nil, fmt.Errorf("sizing: %d capacities for %d buffers", len(caps), g.NumBuffers())
	}
	sized := g.Clone()
	for i, c := range caps {
		sized.SetCapacity(csdf.BufferID(i), c)
	}
	return sized.WithCapacities()
}
