package engine

import (
	"context"
	"errors"
	"testing"

	"kiter/internal/gen"
)

// TestLatencyCountsSuccessOnly pins the accounting fix: cancelled and
// failed evaluations must not contribute latency samples, so a flood of
// fast-aborting jobs cannot drag MeanLatencyMS down.
func TestLatencyCountsSuccessOnly(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Close()
	boom := errors.New("boom")
	mode := "ok"
	e.evalFn = func(ctx context.Context, req *Request) (*Result, error) {
		switch mode {
		case "fail":
			return nil, boom
		case "cancel":
			return nil, context.Canceled
		}
		return &Result{Throughput: &ThroughputResult{Optimal: true}}, nil
	}
	submit := func(n int64) error {
		_, err := e.Submit(context.Background(), &Request{
			Graph: gen.TwoTaskChain(n, 1), Method: MethodKIter, NoCache: true,
		})
		return err
	}
	if err := submit(1); err != nil {
		t.Fatal(err)
	}
	mode = "fail"
	if err := submit(2); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	mode = "cancel"
	if err := submit(3); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want canceled", err)
	}
	s := e.Stats()
	if s.Evaluations != 3 {
		t.Fatalf("evaluations = %d, want 3", s.Evaluations)
	}
	if s.LatencySamples != 1 {
		t.Fatalf("latency samples = %d, want 1 (successes only)", s.LatencySamples)
	}
	if s.Errors != 1 || s.Cancelled != 1 {
		t.Fatalf("errors/cancelled = %d/%d, want 1/1", s.Errors, s.Cancelled)
	}
}

// TestStatsWithoutRegistry: an engine built without Config.Metrics keeps
// its instruments in a private registry, so Stats' counters and latency
// mean and QueueWaitQuantile are live exactly as with one.
func TestStatsWithoutRegistry(t *testing.T) {
	e := New(Config{})
	defer e.Close()
	req := &Request{Graph: gen.Figure2()}
	for range 2 {
		if _, err := e.Submit(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	s := e.Stats()
	if s.Submitted != 2 || s.CacheMisses != 1 || s.CacheHits != 1 || s.Evaluations != 1 || s.RaceWins["kiter"] != 1 {
		t.Fatalf("stats = %+v, want 2 submitted, 1 miss, 1 hit, 1 evaluation answered by kiter", s)
	}
	if s.LatencySamples != 1 || s.MeanLatencyMS <= 0 {
		t.Fatalf("latency samples = %d, mean = %g ms, want 1 sample and a positive mean", s.LatencySamples, s.MeanLatencyMS)
	}
	if q := e.QueueWaitQuantile(0.9); q <= 0 {
		t.Fatalf("QueueWaitQuantile(0.9) = %g after a queued job, want > 0", q)
	}
}
