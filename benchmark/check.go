package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/big"
	"sync"
	"sync/atomic"

	"kiter/internal/csdf"
	"kiter/internal/kperiodic"
	"kiter/internal/sdf3x"
	"kiter/internal/sweep"
)

// referenceOptions are kiterd's default guard rails.
var referenceOptions = kperiodic.Options{MaxNodes: 2_000_000, MaxPairs: 50_000_000}

// reference is the in-process answer for one graph.
type reference struct {
	period   *big.Rat
	deadlock bool
	err      error
}

// checker computes reference periods with kperiodic.KIter, memoized by
// fingerprint, and compares kiterd's answers against them.
type checker struct {
	mu   sync.Mutex
	refs map[string]reference
}

func newChecker() *checker { return &checker{refs: map[string]reference{}} }

func (c *checker) reference(g *csdf.Graph) reference {
	fp := g.FingerprintHex()
	c.mu.Lock()
	r, ok := c.refs[fp]
	c.mu.Unlock()
	if ok {
		return r
	}
	res, err := kperiodic.KIter(g, referenceOptions)
	var de *kperiodic.DeadlockError
	switch {
	case errors.As(err, &de):
		r = reference{deadlock: true}
	case err != nil:
		r = reference{err: err}
	default:
		r = reference{period: res.Period.Big()}
	}
	c.mu.Lock()
	c.refs[fp] = r
	c.mu.Unlock()
	return r
}

// matches reports whether an answer agrees with the reference: the same
// exact period, or both a deadlock verdict.
func (r reference) matches(p point) error {
	switch {
	case r.err != nil:
		return fmt.Errorf("no reference period: %v", r.err)
	case r.deadlock:
		if p.errText == "" {
			return fmt.Errorf("kiterd answered Ω=%s for a deadlocked graph", p.period)
		}
		return nil
	case p.errText != "":
		return fmt.Errorf("kiterd reported %q, reference Ω=%s", p.errText, r.period.RatString())
	}
	got, ok := new(big.Rat).SetString(p.period)
	if !ok {
		return fmt.Errorf("unparsable period %q", p.period)
	}
	if got.Cmp(r.period) != 0 {
		return fmt.Errorf("Ω=%s, reference Ω=%s", p.period, r.period.RatString())
	}
	return nil
}

// checked reports whether an outcome's answers are compared: every warm,
// sweep and fleet answer, and cold answers whose sequence number is
// divisible by 4.
func checked(wl *workload, o *outcome) bool {
	return wl.name != analyzeCold || o.req.seq%4 == 0
}

// check compares the answers of outcomes against references, using the
// given number of goroutines. A wrong answer counts as a failed analysis
// of its outcome; check returns the number of answers compared and the
// first mismatch.
func (c *checker) check(wl *workload, outs []outcome, workers int) (int, error) {
	var idx []int
	for i := range outs {
		// An outcome whose every analysis already failed has nothing to
		// compare.
		if o := &outs[i]; o.failed < o.req.analyses() && checked(wl, o) {
			idx = append(idx, i)
		}
	}
	var next, compared atomic.Int64
	var mu sync.Mutex
	var first error
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := next.Add(1) - 1
				if n >= int64(len(idx)) {
					return
				}
				o := &outs[idx[n]]
				wrong, err := c.checkOne(wl, o)
				compared.Add(int64(len(o.points)))
				if err == nil {
					continue
				}
				mu.Lock()
				o.failed += wrong
				if first == nil {
					first = fmt.Errorf("request %d (%s, base %d, variant %d): %w", o.req.seq, o.req.path, o.req.base, o.req.variant, err)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return int(compared.Load()), first
}

// checkOne compares one outcome's answers and returns how many were wrong
// with the first mismatch. The outcome does not keep its request body; the
// body is rendered again from the workload.
func (c *checker) checkOne(wl *workload, o *outcome) (int, error) {
	body := wl.request(o.req.seq).body
	graph := func(int) (*csdf.Graph, error) { return sdf3x.ReadJSON(bytes.NewReader(body)) }
	if o.req.path == "/sweep" {
		spec, err := sweep.ParseSpec(body)
		if err != nil {
			return len(o.points), err
		}
		x, err := sweep.Compile(spec, false)
		if err != nil {
			return len(o.points), err
		}
		graph = x.Materialize
	}
	wrong := 0
	var first error
	for _, p := range o.points {
		g, err := graph(p.scenario)
		if err == nil {
			err = c.reference(g).matches(p)
		}
		if err != nil {
			wrong++
			if first == nil {
				first = fmt.Errorf("scenario %d: %w", p.scenario, err)
			}
		}
	}
	return wrong, first
}
