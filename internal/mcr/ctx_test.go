package mcr

import (
	"context"
	"errors"
	"testing"

	"kiter/internal/rat"
)

func TestSolveCtxCancelled(t *testing.T) {
	g := ring(64, 3, ri(1))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := NewSolver()
	if _, err := s.SolveCtx(ctx, g, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("SolveCtx err = %v, want context.Canceled", err)
	}
	// An unconstrained context still solves.
	res, err := s.SolveCtx(context.Background(), g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ratio.Cmp(rat.NewRat(3*64, 64)) != 0 {
		t.Fatalf("ratio = %s, want 3", res.Ratio)
	}
}

func TestRefineCtxCancelled(t *testing.T) {
	g := ring(16, 2, ri(1))
	cand, err := Solve(g, Options{SkipCertify: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := NewSolver()
	if _, err := s.RefineCtx(ctx, g, cand); !errors.Is(err, context.Canceled) {
		t.Fatalf("RefineCtx err = %v, want context.Canceled", err)
	}
	refined, err := s.RefineCtx(context.Background(), g, cand)
	if err != nil {
		t.Fatal(err)
	}
	if !refined.Certified {
		t.Fatal("refined result not certified")
	}
}

// TestSolverReuse runs one Solver across graphs of different shapes and
// sizes to check that recycled scratch state never leaks between solves.
func TestSolverReuse(t *testing.T) {
	s := NewSolver()
	for trial := 0; trial < 3; trial++ {
		for _, n := range []int{3, 17, 5, 64, 2} {
			g := ring(n, int64(n), ri(1))
			res, err := s.Solve(g, Options{})
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			if res.Ratio.Cmp(ri(int64(n))) != 0 {
				t.Fatalf("n=%d: ratio = %s, want %d", n, res.Ratio, n)
			}
			if len(res.CycleArcs) != n {
				t.Fatalf("n=%d: cycle over %d arcs", n, len(res.CycleArcs))
			}
		}
		// A graph with a dead tail and two competing cycles.
		g := New(6)
		g.AddArc(0, 1, 10, ri(1))
		g.AddArc(1, 0, 10, ri(1))
		g.AddArc(2, 3, 1, ri(1))
		g.AddArc(3, 2, 1, ri(1))
		g.AddArc(4, 0, 1, ri(1)) // tail into the fast cycle
		g.AddArc(5, 4, 1, ri(1))
		res, err := s.Solve(g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Ratio.Cmp(ri(10)) != 0 {
			t.Fatalf("ratio = %s, want 10", res.Ratio)
		}
	}
}
