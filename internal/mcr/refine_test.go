package mcr

import (
	"context"
	"math/rand"
	"testing"

	"kiter/internal/rat"
)

func TestRefinePassthroughWhenCertified(t *testing.T) {
	g := ring(3, 2, ri(1))
	res, err := Solve(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	again, err := NewSolver().RefineCtx(context.Background(), g, res)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Certified || again.Ratio.Cmp(res.Ratio) != 0 {
		t.Errorf("RefineCtx changed a certified result: %+v", again)
	}
}

func TestRefineUpgradesFloatResult(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := NewSolver()
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(8)
		g := New(n)
		for i := 0; i < n; i++ {
			g.AddArc(i, (i+1)%n, rng.Int63n(30), rat.NewRat(1+rng.Int63n(7), 1+rng.Int63n(5)))
		}
		for e := rng.Intn(n); e > 0; e-- {
			g.AddArc(rng.Intn(n), rng.Intn(n), rng.Int63n(30), rat.NewRat(1+rng.Int63n(7), 1+rng.Int63n(5)))
		}
		fast, err := Solve(g, Options{SkipCertify: true})
		if err != nil {
			t.Fatal(err)
		}
		refined, err := s.RefineCtx(context.Background(), g, fast)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := SolveExact(g)
		if err != nil {
			t.Fatal(err)
		}
		if !refined.Certified {
			t.Fatal("RefineCtx did not certify")
		}
		if refined.Ratio.Cmp(exact.Ratio) != 0 {
			t.Fatalf("trial %d: refined %s ≠ exact %s", trial, refined.Ratio, exact.Ratio)
		}
		if refined.Ratio.Cmp(fast.Ratio) < 0 {
			t.Fatalf("trial %d: refinement regressed below the candidate", trial)
		}
	}
}

func TestHowardRoundsBudgetStillExact(t *testing.T) {
	// Starving Howard of improvement rounds must not break exactness:
	// certification repairs any suboptimal candidate.
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 15; trial++ {
		n := 4 + rng.Intn(10)
		g := randomUnitHGraph(rng, n)
		limited, err := Solve(g, Options{MaxHowardRounds: 1})
		if err != nil {
			t.Fatal(err)
		}
		full, err := Solve(g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if limited.Ratio.Cmp(full.Ratio) != 0 {
			t.Fatalf("trial %d: 1-round %s ≠ full %s", trial, limited.Ratio, full.Ratio)
		}
	}
}

func TestSolveExactOnDegenerateOnlyGraph(t *testing.T) {
	// Only a 0/0 circuit exists: ratio 0 with the circuit reported.
	g := New(2)
	g.AddArc(0, 1, 0, rat.Rat{})
	g.AddArc(1, 0, 0, rat.Rat{})
	res, err := SolveExact(g)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ratio.IsZero() {
		t.Errorf("ratio = %s, want 0", res.Ratio)
	}
	if len(res.CycleArcs) == 0 {
		t.Error("no circuit reported")
	}
}

func TestSolveExactDeadlock(t *testing.T) {
	g := New(2)
	g.AddArc(0, 1, 3, ri(1))
	g.AddArc(1, 0, 3, ri(-1))
	if _, err := SolveExact(g); err == nil {
		t.Error("infeasible circuit accepted")
	}
}

func TestCertifyOnEmptyGraph(t *testing.T) {
	g := New(0)
	viol, err := g.Certify(ri(1))
	if err != nil || viol != nil {
		t.Errorf("empty graph certify = %v,%v", viol, err)
	}
}

func TestRefinementsCounter(t *testing.T) {
	// Two near-tie cycles: the float path may pick either; after
	// refinement the exact ratio is the larger one and the counter
	// reflects whether a repair happened.
	g := New(4)
	g.AddArc(0, 1, 1_000_000_000, ri(1))
	g.AddArc(1, 0, 1_000_000_000, ri(1))
	g.AddArc(2, 3, 2_000_000_001, ri(2))
	g.AddArc(3, 2, 2_000_000_001, ri(2))
	res, err := Solve(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := rat.NewRat(2_000_000_001, 2)
	if res.Ratio.Cmp(want) != 0 {
		t.Errorf("ratio = %s, want %s", res.Ratio, want)
	}
	if res.Refinements < 0 {
		t.Error("negative refinement count")
	}
}
