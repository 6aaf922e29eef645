package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kiter/internal/gen"
)

// TestSubmitFamilyCompletes runs a family of distinct graphs plus repeats
// and checks every member gets exactly one serialized done callback, with
// repeats answered from cache.
func TestSubmitFamilyCompletes(t *testing.T) {
	e := New(Config{Workers: 4})
	defer e.Close()

	const distinct, total = 6, 12
	var mu sync.Mutex
	got := map[int]FamilyResult{}
	err := e.SubmitFamily(context.Background(), total, FamilyConfig{},
		func(i int) (*Request, error) {
			return &Request{Graph: gen.TwoTaskChain(int64(i%distinct+1), 2), Method: MethodKIter}, nil
		},
		func(r FamilyResult) {
			mu.Lock()
			defer mu.Unlock()
			if _, dup := got[r.Index]; dup {
				t.Errorf("done called twice for %d", r.Index)
			}
			got[r.Index] = r
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != total {
		t.Fatalf("%d done callbacks, want %d", len(got), total)
	}
	for i, r := range got {
		if r.Err != nil {
			t.Fatalf("member %d failed: %v", i, r.Err)
		}
		if r.Result.Throughput == nil || !r.Result.Throughput.Optimal {
			t.Fatalf("member %d: no optimal throughput", i)
		}
	}
	s := e.Stats()
	if s.Evaluations != distinct {
		t.Fatalf("evaluations = %d, want %d (repeats should coalesce)", s.Evaluations, distinct)
	}
	if s.CacheHits+s.Deduped != total-distinct {
		t.Fatalf("cacheHits+deduped = %d, want %d", s.CacheHits+s.Deduped, total-distinct)
	}
}

// TestSubmitFamilyBuildsInOrderWithinWidth: build runs exactly once per
// index, in ascending order, and no more than Width members evaluate at
// once, for families empty, narrower than Width and wider than it.
func TestSubmitFamilyBuildsInOrderWithinWidth(t *testing.T) {
	const width = 3
	for _, n := range []int{0, 2, width, 17} {
		e := New(Config{Workers: 8})
		var running, peak atomic.Int64
		e.evalFn = func(ctx context.Context, req *Request) (*Result, error) {
			now := running.Add(1)
			for p := peak.Load(); now > p && !peak.CompareAndSwap(p, now); p = peak.Load() {
			}
			time.Sleep(time.Millisecond)
			running.Add(-1)
			return &Result{Fingerprint: req.fingerprintHint}, nil
		}
		var built []int // build is serialized, so it appends unlocked
		var done int
		err := e.SubmitFamily(context.Background(), n, FamilyConfig{Width: width},
			func(i int) (*Request, error) {
				built = append(built, i)
				return &Request{Graph: gen.TwoTaskChain(int64(i+1), 1)}, nil
			},
			func(r FamilyResult) {
				if r.Err != nil {
					t.Errorf("n=%d member %d: %v", n, r.Index, r.Err)
				}
				done++
			})
		e.Close()
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(built) != n || done != n {
			t.Fatalf("n=%d: built %d members, %d done callbacks", n, len(built), done)
		}
		for i, b := range built {
			if b != i {
				t.Fatalf("n=%d: build order %v, want ascending", n, built)
			}
		}
		if p := peak.Load(); p > min(width, int64(n)) {
			t.Fatalf("n=%d: %d members evaluated at once, want ≤ %d", n, p, min(width, n))
		}
	}
}

// TestSubmitFamilyBuildErrors proves a failing build only fails its member.
func TestSubmitFamilyBuildErrors(t *testing.T) {
	e := New(Config{Workers: 2})
	defer e.Close()
	boom := errors.New("boom")
	var mu sync.Mutex
	var failed, ok int
	err := e.SubmitFamily(context.Background(), 6, FamilyConfig{},
		func(i int) (*Request, error) {
			if i%2 == 1 {
				return nil, fmt.Errorf("member %d: %w", i, boom)
			}
			return &Request{Graph: gen.TwoTaskChain(int64(i+1), 1), Method: MethodKIter}, nil
		},
		func(r FamilyResult) {
			mu.Lock()
			defer mu.Unlock()
			if r.Err != nil {
				if !errors.Is(r.Err, boom) {
					t.Errorf("member %d: unexpected error %v", r.Index, r.Err)
				}
				failed++
				return
			}
			ok++
		})
	if err != nil {
		t.Fatal(err)
	}
	if failed != 3 || ok != 3 {
		t.Fatalf("failed=%d ok=%d, want 3/3", failed, ok)
	}
}

// TestSubmitFamilyCancellation cancels mid-family: the call returns
// ctx.Err(), members never started get no callback, and the engine drains.
func TestSubmitFamilyCancellation(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Close()
	release := make(chan struct{})
	e.evalFn = func(ctx context.Context, req *Request) (*Result, error) {
		select {
		case <-release:
			return &Result{Throughput: &ThroughputResult{Optimal: true}}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 64)
	var mu sync.Mutex
	var callbacks int
	done := make(chan error, 1)
	go func() {
		done <- e.SubmitFamily(ctx, 64, FamilyConfig{Width: 2},
			func(i int) (*Request, error) {
				started <- struct{}{}
				return &Request{Graph: gen.TwoTaskChain(int64(i+1), 1), Method: MethodKIter, NoCache: true}, nil
			},
			func(r FamilyResult) {
				mu.Lock()
				callbacks++
				mu.Unlock()
			})
	}()
	// Wait until the family is saturated (width 2), then cancel.
	<-started
	<-started
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("SubmitFamily did not return after cancel")
	}
	close(release)
	mu.Lock()
	got := callbacks
	mu.Unlock()
	if got > 3 {
		t.Fatalf("%d callbacks after early cancel, want at most the in-flight window", got)
	}
}

// TestSubmitFamilyMemberTimeout proves MemberTimeout bounds each member
// individually: stuck members fail with DeadlineExceeded, the family
// itself completes without error.
func TestSubmitFamilyMemberTimeout(t *testing.T) {
	e := New(Config{Workers: 2})
	defer e.Close()
	e.evalFn = func(ctx context.Context, req *Request) (*Result, error) {
		<-ctx.Done() // never finishes on its own
		return nil, ctx.Err()
	}
	var mu sync.Mutex
	var timedOut int
	err := e.SubmitFamily(context.Background(), 4,
		FamilyConfig{MemberTimeout: 20 * time.Millisecond},
		func(i int) (*Request, error) {
			return &Request{Graph: gen.TwoTaskChain(int64(i+1), 1), Method: MethodKIter, NoCache: true}, nil
		},
		func(r FamilyResult) {
			mu.Lock()
			defer mu.Unlock()
			if errors.Is(r.Err, context.DeadlineExceeded) {
				timedOut++
			}
		})
	if err != nil {
		t.Fatalf("family-level error: %v (member timeouts must stay member-local)", err)
	}
	if timedOut != 4 {
		t.Fatalf("%d members timed out, want 4", timedOut)
	}
}

// TestStatsDelta checks the per-window counter view.
func TestStatsDelta(t *testing.T) {
	e := New(Config{Workers: 2})
	defer e.Close()
	sub := func(n int64) {
		if _, err := e.Submit(context.Background(), &Request{Graph: gen.TwoTaskChain(n, 2), Method: MethodKIter}); err != nil {
			t.Fatal(err)
		}
	}
	sub(1)
	before := e.Stats()
	sub(1) // cache hit
	sub(2) // fresh evaluation
	d := e.Stats().Delta(before)
	if d.Submitted != 2 || d.CacheHits != 1 || d.Evaluations != 1 {
		t.Fatalf("delta = %+v, want submitted 2 / hits 1 / evals 1", d)
	}
	if d.HitRate != 0.5 {
		t.Fatalf("window hit rate = %v, want 0.5", d.HitRate)
	}
	if d.MeanLatencyMS < 0 {
		t.Fatalf("window mean latency = %v", d.MeanLatencyMS)
	}
}
