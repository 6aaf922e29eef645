package resilience

import (
	"sync"
	"testing"
	"time"
)

func TestBreakerOpensAtThreshold(t *testing.T) {
	b := NewBreaker(3)
	if !b.Allow() || b.State() != BreakerClosed {
		t.Fatal("new breaker not closed")
	}
	if b.Failure() {
		t.Fatal("opened on 1st failure")
	}
	if b.Failure() {
		t.Fatal("opened on 2nd failure")
	}
	if !b.Failure() {
		t.Fatal("3rd failure did not open")
	}
	if b.Allow() || b.State() != BreakerOpen {
		t.Fatal("open breaker allowing traffic")
	}
	if b.Opens() != 1 {
		t.Fatalf("Opens = %d, want 1", b.Opens())
	}
	// Failures against an already-open breaker are not new transitions.
	if b.Failure() {
		t.Fatal("failure on open breaker reported a transition")
	}
	if b.Opens() != 1 {
		t.Fatalf("Opens = %d after redundant failure, want 1", b.Opens())
	}
}

func TestBreakerSuccessResetsStreak(t *testing.T) {
	b := NewBreaker(3)
	b.Failure()
	b.Failure()
	b.Success()
	b.Failure()
	b.Failure()
	if b.State() != BreakerClosed {
		t.Fatal("non-consecutive failures tripped the breaker")
	}
}

func TestBreakerHalfOpenTrial(t *testing.T) {
	b := NewBreaker(1)
	b.Failure()
	if b.State() != BreakerOpen {
		t.Fatal("threshold-1 breaker not open after one failure")
	}
	// HalfOpen only acts on an open breaker.
	b.HalfOpen()
	if b.State() != BreakerHalfOpen || !b.Allow() {
		t.Fatal("probe success did not half-open")
	}
	// Failed trial → straight back to open, counting a fresh transition.
	if !b.Failure() {
		t.Fatal("half-open failure did not re-open")
	}
	if b.Opens() != 2 {
		t.Fatalf("Opens = %d, want 2", b.Opens())
	}
	b.HalfOpen()
	b.Success()
	if b.State() != BreakerClosed {
		t.Fatal("successful trial did not close")
	}
	// HalfOpen on a closed breaker must not regress it.
	b.HalfOpen()
	if b.State() != BreakerClosed {
		t.Fatal("HalfOpen regressed a closed breaker")
	}
}

func TestBreakerConcurrency(t *testing.T) {
	b := NewBreaker(2)
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				b.Failure()
			} else {
				b.Success()
			}
			b.Allow()
			b.State()
		}(i)
	}
	wg.Wait() // the race detector is the assertion
}

func TestBreakerStateString(t *testing.T) {
	for state, want := range map[BreakerState]string{
		BreakerClosed:   "closed",
		BreakerHalfOpen: "half-open",
		BreakerOpen:     "open",
	} {
		if got := state.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", state, got, want)
		}
	}
}

func estimatorOf(pending, workers int, p90 float64) Estimator {
	return Estimator{
		QuantileWait: func(q float64) float64 { return p90 },
		Pending:      func() int { return pending },
		Workers:      workers,
	}
}

func TestEstimateWait(t *testing.T) {
	// Free worker → no wait, regardless of history.
	e := estimatorOf(1, 2, 10)
	if got := e.EstimateWait(); got != 0 {
		t.Fatalf("underloaded estimate = %v, want 0", got)
	}
	// Saturated pool: p90 scaled by backlog ratio (8 pending / 2 workers).
	e = estimatorOf(8, 2, 0.5)
	if got := e.EstimateWait(); got != 2*time.Second {
		t.Fatalf("saturated estimate = %v, want 2s", got)
	}
	// No history yet → optimistic zero even when saturated.
	e = estimatorOf(8, 2, 0)
	if got := e.EstimateWait(); got != 0 {
		t.Fatalf("cold estimate = %v, want 0", got)
	}
	// Nil estimator pieces never panic.
	var nilEst *Estimator
	if nilEst.EstimateWait() != 0 {
		t.Fatal("nil estimator estimated")
	}
	if (&Estimator{Workers: 2}).EstimateWait() != 0 {
		t.Fatal("estimator without Pending estimated")
	}
}

func TestAdmissionShedsBeyondBudget(t *testing.T) {
	a := NewAdmission(estimatorOf(8, 2, 0.5), nil) // 2s estimated wait

	// Budget above the estimate: admitted.
	if est, shed := a.Check(5 * time.Second); shed || est != 2*time.Second {
		t.Fatalf("Check(5s) = %v, %v", est, shed)
	}
	// Budget below: shed, counted.
	if _, shed := a.Check(time.Second); !shed {
		t.Fatal("Check(1s) admitted a hopeless request")
	}
	if _, shed := a.Check(time.Second); !shed {
		t.Fatal("second hopeless request admitted")
	}
	// No deadline = infinite budget: always admitted.
	if _, shed := a.Check(0); shed {
		t.Fatal("deadline-free request shed")
	}
	s := a.Stats()
	if s.Shed != 2 {
		t.Fatalf("Shed = %d, want 2", s.Shed)
	}
	if s.EstimatedWaitMS != 2000 {
		t.Fatalf("EstimatedWaitMS = %v, want 2000", s.EstimatedWaitMS)
	}
	if a.EstimateWait() != 2*time.Second {
		t.Fatalf("EstimateWait = %v", a.EstimateWait())
	}
}

func TestAdmissionNilSafe(t *testing.T) {
	var a *Admission
	if _, shed := a.Check(time.Nanosecond); shed {
		t.Fatal("nil admission shed")
	}
	if a.EstimateWait() != 0 || a.Stats() != (AdmissionStats{}) {
		t.Fatal("nil admission reported state")
	}
}
