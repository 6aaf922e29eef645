package mcr

import (
	"context"
	"errors"
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"kiter/internal/rat"
)

// fuzzGraph builds a random bi-valued graph around a ring, so it always
// has a circuit. The shape bits pick the weight regime: 1 huge costs
// (scaled weights and distances leave int64), 2 large coprime H
// denominators (their lcm leaves int64), 4 zero and negative H, 8 one arc
// with an H held in big form.
func fuzzGraph(seed int64, nodes, extra, shape uint8) *Graph {
	rng := rand.New(rand.NewSource(seed))
	n := 1 + int(nodes)%12
	g := New(n)
	// Primes near 2²¹: the lcm of any three distinct ones exceeds 2⁶³.
	primes := []int64{2097131, 2097143, 2097169, 2097211, 2097223}
	arc := func(from, to int) {
		l := rng.Int63n(50)
		if shape&1 != 0 {
			l = rng.Int63n(1 << 61)
		}
		num, den := 1+rng.Int63n(9), 1+rng.Int63n(6)
		if shape&2 != 0 {
			den = primes[rng.Intn(len(primes))]
		}
		if shape&4 != 0 {
			num = rng.Int63n(9) - 4
		}
		g.AddArc(from, to, l, rat.NewRat(num, den))
	}
	for v := 0; v < n; v++ {
		arc(v, (v+1)%n)
	}
	for e := int(extra) % (3 * n); e > 0; e-- {
		arc(rng.Intn(n), rng.Intn(n))
	}
	if shape&8 != 0 {
		huge := new(big.Int).Lsh(big.NewInt(1), 70)
		g.arcs[rng.Intn(len(g.arcs))].H = rat.FromBigInts(new(big.Int).Add(huge, big.NewInt(1)), huge)
	}
	return g
}

// probeLambdas returns the ratios to certify g against: its exact maximum
// λ* and values just below and just above it when g has one, zero, and
// a big-form value.
func probeLambdas(g *Graph) []rat.Rat {
	tiny := rat.FromBigInts(big.NewInt(1), new(big.Int).Lsh(big.NewInt(1), 80))
	out := []rat.Rat{{}, rat.NewRat(7, 3), rat.NewRat(7, 3).Add(tiny)}
	if res, err := SolveExact(g); err == nil {
		star := res.Ratio
		for _, d := range []int64{2, 1000003} {
			eps := rat.NewRat(1, d)
			out = append(out, star.Sub(eps), star.Add(eps))
		}
		out = append(out, star, star.Sub(tiny), star.Add(tiny))
	}
	return out
}

// checkPositiveCycle asserts that positiveCycle, whichever arithmetic it
// ran in, returns exactly what the rational reference returns.
func checkPositiveCycle(t *testing.T, g *Graph, lambda rat.Rat) {
	t.Helper()
	ctx := context.Background()
	var ref, s Solver
	want, wantErr := ref.positiveCycleRat(ctx, g, lambda)
	got, gotErr := s.positiveCycle(ctx, g, lambda)
	if (wantErr == nil) != (gotErr == nil) || !slices.Equal(got, want) {
		t.Fatalf("λ = %s: positiveCycle = %v, %v; rational reference = %v, %v", lambda, got, gotErr, want, wantErr)
	}
}

// intPath reports how the integer pass fares on g at λ: "int" when it
// answers, "scale" when the scaled weights leave int64, "relax" when a
// distance does.
func intPath(g *Graph, lambda rat.Rat) string {
	var s Solver
	if !s.scaleWeights(g, lambda) {
		return "scale"
	}
	if _, ok, _ := s.positiveCycleInt(context.Background(), g); !ok {
		return "relax"
	}
	return "int"
}

// FuzzPositiveCycle checks the integer certification pass against the
// rational one on random graphs, at, just below and just above their
// exact maximum ratio: both must return the same circuit, arc for arc, or
// both none.
func FuzzPositiveCycle(f *testing.F) {
	for _, shape := range []uint8{0, 1, 2, 4, 8, 6, 15} {
		f.Add(int64(shape)+1, uint8(5), uint8(7), shape)
	}
	f.Fuzz(func(t *testing.T, seed int64, nodes, extra, shape uint8) {
		g := fuzzGraph(seed, nodes, extra, shape)
		for _, lambda := range probeLambdas(g) {
			checkPositiveCycle(t, g, lambda)
		}
	})
}

// TestPositiveCycleMatchesRational runs the fuzz target's check over a
// fixed sweep of seeds and shapes, so every plain test run compares the
// two passes on 160 graphs.
func TestPositiveCycleMatchesRational(t *testing.T) {
	paths := map[string]int{}
	for seed := int64(0); seed < 10; seed++ {
		for shape := uint8(0); shape < 16; shape++ {
			g := fuzzGraph(seed, uint8(seed), uint8(seed*7), shape)
			for _, lambda := range probeLambdas(g) {
				checkPositiveCycle(t, g, lambda)
				paths[intPath(g, lambda)]++
			}
		}
	}
	for _, p := range []string{"int", "scale", "relax"} {
		if paths[p] == 0 {
			t.Errorf("no probe took the %q path (%v)", p, paths)
		}
	}
}

// TestPositiveCycleIntDeclines pins the three ways the integer pass hands
// over to rational arithmetic, and that the answer is unchanged by it.
func TestPositiveCycleIntDeclines(t *testing.T) {
	big70 := new(big.Int).Lsh(big.NewInt(1), 70)
	cases := []struct {
		name   string
		g      *Graph
		lambda rat.Rat
		path   string
	}{
		{"fits", ring(3, 5, rat.NewRat(2, 3)), rat.NewRat(7, 2), "int"},
		{"big λ", ring(3, 5, rat.NewRat(2, 3)), rat.FromBigInts(big70, new(big.Int).Add(big70, big.NewInt(1))), "scale"},
		{"big H", ring(2, 5, rat.FromBigInts(big70, big.NewInt(3))), rat.Rat{}, "scale"},
		{"lcm overflow", func() *Graph {
			g := New(3)
			g.AddArc(0, 1, 1, rat.NewRat(1, 2097143))
			g.AddArc(1, 2, 1, rat.NewRat(1, 2097169))
			g.AddArc(2, 0, 1, rat.NewRat(1, 2097211))
			return g
		}(), rat.NewRat(1, 2), "scale"},
		// W = 2⁶¹ per arc at λ = 0 fits, but the distances around the
		// circuit pass MaxInt64 in the second round.
		{"distance overflow", ring(2, 1<<61, ri(1)), rat.Rat{}, "relax"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := intPath(c.g, c.lambda); got != c.path {
				t.Errorf("integer pass: %s, want %s", got, c.path)
			}
			checkPositiveCycle(t, c.g, c.lambda)
		})
	}
}

// TestPositiveCycleCancelled checks that both passes poll the context.
func TestPositiveCycleCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := ring(4, 3, ri(1))
	var s Solver
	if _, err := s.positiveCycle(ctx, g, rat.Rat{}); !errors.Is(err, context.Canceled) {
		t.Errorf("integer pass: err = %v, want context.Canceled", err)
	}
	if _, err := s.positiveCycleRat(ctx, g, rat.Rat{}); !errors.Is(err, context.Canceled) {
		t.Errorf("rational pass: err = %v, want context.Canceled", err)
	}
}
