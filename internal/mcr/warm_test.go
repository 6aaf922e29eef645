package mcr

import (
	"math/rand"
	"testing"

	"kiter/internal/rat"
)

// randomRatioGraph builds a strongly connected graph (a Hamiltonian ring
// plus random chords) with random costs and positive rational times.
func randomRatioGraph(rng *rand.Rand, n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		g.AddArc(i, (i+1)%n, rng.Int63n(15), rat.NewRat(1+rng.Int63n(5), 1+rng.Int63n(6)))
	}
	for e := rng.Intn(3 * n); e > 0; e-- {
		g.AddArc(rng.Intn(n), rng.Intn(n), rng.Int63n(15), rat.NewRat(1+rng.Int63n(5), 1+rng.Int63n(6)))
	}
	return g
}

// TestInitPolicyFromFinalPolicy restarts Howard from its own final policy:
// the optimum is unchanged and value determination confirms it in a single
// round.
func TestInitPolicyFromFinalPolicy(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := NewSolver()
	for trial := 0; trial < 40; trial++ {
		g := randomRatioGraph(rng, 2+rng.Intn(12))
		cold, err := s.Solve(g, Options{SkipCertify: true})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		final := append([]int32(nil), s.Policy()...)
		if len(final) != g.NumNodes() {
			t.Fatalf("trial %d: policy has %d entries for %d nodes", trial, len(final), g.NumNodes())
		}
		warm, err := s.Solve(g, Options{InitPolicy: final})
		if err != nil {
			t.Fatalf("trial %d: warm: %v", trial, err)
		}
		exact, err := SolveExact(g)
		if err != nil {
			t.Fatal(err)
		}
		if warm.Ratio.Cmp(exact.Ratio) != 0 {
			t.Fatalf("trial %d: warm ratio %s, exact %s", trial, warm.Ratio, exact.Ratio)
		}
		if warm.Iterations != 1 {
			t.Errorf("trial %d: warm start from the final policy took %d Howard rounds (cold %d), want 1",
				trial, warm.Iterations, cold.Iterations)
		}
	}
}

// TestInitPolicyIgnoresInvalidEntries feeds starting policies that name
// out-of-range arcs, arcs leaving another node, arcs into the trimmed
// tail, or are shorter than the node count: those entries fall back to
// the default choice and the result stays exact.
func TestInitPolicyIgnoresInvalidEntries(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		g := randomRatioGraph(rng, 3+rng.Intn(10))
		tail := g.NumNodes()
		g.n++ // a node with no outgoing arc, trimmed from the cyclic core
		g.AddArc(0, tail, 1, ri(1))
		init := make([]int32, g.NumNodes()-rng.Intn(2))
		for v := range init {
			switch rng.Intn(4) {
			case 0:
				init[v] = -1
			case 1:
				init[v] = int32(g.NumArcs() + rng.Intn(3))
			default:
				init[v] = int32(rng.Intn(g.NumArcs())) // usually leaves another node
			}
		}
		res, err := Solve(g, Options{InitPolicy: init})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		exact, err := SolveExact(g)
		if err != nil {
			t.Fatal(err)
		}
		if res.Ratio.Cmp(exact.Ratio) != 0 {
			t.Fatalf("trial %d: ratio %s, exact %s", trial, res.Ratio, exact.Ratio)
		}
	}
}

// TestPolicyResetOnAcyclic checks that a solve finding no circuit leaves
// no stale policy behind for a later warm start.
func TestPolicyResetOnAcyclic(t *testing.T) {
	s := NewSolver()
	if len(s.Policy()) != 0 {
		t.Fatal("a fresh solver reports a policy")
	}
	if _, err := s.Solve(ring(4, 1, ri(1)), Options{}); err != nil {
		t.Fatal(err)
	}
	if len(s.Policy()) != 4 {
		t.Fatalf("policy has %d entries, want 4", len(s.Policy()))
	}
	g := New(2)
	g.AddArc(0, 1, 1, ri(1))
	if _, err := s.Solve(g, Options{}); err != ErrNoCycle {
		t.Fatalf("err = %v, want ErrNoCycle", err)
	}
	if len(s.Policy()) != 0 {
		t.Errorf("acyclic solve left a %d-entry policy", len(s.Policy()))
	}
}

// TestReserveGrowsGeometrically checks that an arena rebuilt with a slowly
// rising arc count reallocates only O(log m) times.
func TestReserveGrowsGeometrically(t *testing.T) {
	g := New(1)
	reallocs := 0
	for m := 1; m <= 1000; m++ {
		before := cap(g.arcs)
		g.Reset(1)
		g.Reserve(m)
		if cap(g.arcs) != before {
			reallocs++
		}
	}
	if reallocs > 11 {
		t.Errorf("1000 rounds of +1 arc reallocated the arena %d times, want ≤ 11", reallocs)
	}
}
