// Differential oracle: K-Iter, whose Algorithm 1 rounds warm-start each
// MCRP solve from the previous round's policy, must agree with the full
// expansion (K = q), which solves a single cold MCRP, on every input both
// can afford; and the int64 repetition vector must agree with its
// arbitrary-precision form and with the balance equations.
package kiter_test

import (
	"errors"
	"math/big"
	"testing"

	"kiter/internal/bench"
	"kiter/internal/csdf"
	"kiter/internal/gen"
	"kiter/internal/kperiodic"
)

// differentialInputs returns the oracle's base graphs: random CSDF graphs
// (each also with its initial tokens cut to a quarter, which deadlocks
// some), the Table 1 categories, KIterChain and the BlackScholes stand-in
// of Table 2 with and without buffer capacities.
func differentialInputs(t *testing.T) []*csdf.Graph {
	t.Helper()
	var out []*csdf.Graph
	for seed := int64(1); seed <= 24; seed++ {
		g, err := gen.Random(gen.Profile{
			Name:         "random",
			Seed:         seed,
			Tasks:        3 + int(seed%5),
			Buffers:      4 + int(seed%6),
			QLadder:      []int64{1, 2, 3, 4, 6},
			MaxPhases:    3,
			MaxDuration:  9,
			RateFactor:   1 + seed%2,
			BackEdgeFrac: 0.4,
			TokensSlack:  1,
			Ring:         true,
		})
		if err != nil {
			continue
		}
		starved := g.Clone()
		for i := range starved.Buffers() {
			starved.Buffer(csdf.BufferID(i)).Initial /= 4
		}
		out = append(out, g, starved)
	}
	for _, s := range bench.Table1Suites(8, 3, 2, 1) {
		out = append(out, s.Graphs...)
	}
	out = append(out, gen.Figure2(), gen.DeadlockedRing(), gen.KIterChain(4), gen.KIterChain(8))
	for _, spec := range gen.IndustrialSpecs() {
		if spec.Name != "BlackScholes" {
			continue
		}
		g, err := gen.Industrial(spec)
		if err != nil {
			t.Fatal(err)
		}
		bounded, err := gen.IndustrialBounded(spec)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, g, bounded)
	}
	return out
}

// TestDifferentialKIterVsExpansion compares Ω, the optimality verdict and
// the deadlock verdict of K-Iter and the expansion at duration multipliers
// 1, 113 and 800 (113 and 800 put Howard's float fast path under the
// largest rounding defects), within a node budget that keeps the
// expansion affordable.
func TestDifferentialKIterVsExpansion(t *testing.T) {
	opt := kperiodic.Options{MaxNodes: 5000, MaxPairs: 500_000}
	compared, deadlocks, multiRound := 0, 0, 0
	for _, base := range differentialInputs(t) {
		for _, m := range []int64{1, 113, 800} {
			g := base.ScaleDurations(m)
			kr, kerr := kperiodic.KIter(g, opt)
			ex, xerr := kperiodic.Expansion(g, opt)
			var tooLarge *kperiodic.ErrTooLarge
			if errors.As(kerr, &tooLarge) || errors.As(xerr, &tooLarge) {
				continue
			}
			var kd, xd *kperiodic.DeadlockError
			kDead, xDead := errors.As(kerr, &kd), errors.As(xerr, &xd)
			switch {
			case kDead != xDead:
				t.Errorf("%s ×%d: deadlock verdicts differ: K-Iter %v, expansion %v", base.Name, m, kerr, xerr)
				continue
			case kDead:
				deadlocks++
				compared++
				continue
			case kerr != nil || xerr != nil:
				t.Errorf("%s ×%d: K-Iter err %v, expansion err %v", base.Name, m, kerr, xerr)
				continue
			}
			compared++
			if kr.Iterations > 1 {
				multiRound++
			}
			if kr.Period.Cmp(ex.Period) != 0 {
				t.Errorf("%s ×%d: K-Iter Ω = %s, expansion Ω = %s", base.Name, m, kr.Period, ex.Period)
			}
			if kr.Optimal != ex.Optimal || !kr.Optimal {
				t.Errorf("%s ×%d: Optimal: K-Iter %v, expansion %v", base.Name, m, kr.Optimal, ex.Optimal)
			}
		}
	}
	t.Logf("%d comparisons, %d deadlocked, %d needing several K-Iter rounds", compared, deadlocks, multiRound)
	if compared < 100 || deadlocks == 0 || multiRound < 10 {
		t.Errorf("oracle too weak: %d comparisons, %d deadlocked, %d multi-round", compared, deadlocks, multiRound)
	}
}

// TestDifferentialRepetitionVector checks RepetitionVector against
// RepetitionVectorBig and against the balance equations qt·ib = qt′·ob,
// with minimality (component-wise gcd 1; every input is connected), in
// big arithmetic.
func TestDifferentialRepetitionVector(t *testing.T) {
	for _, g := range differentialInputs(t) {
		q, err := g.RepetitionVector()
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		qb, err := g.RepetitionVectorBig()
		if err != nil {
			t.Fatalf("%s: big: %v", g.Name, err)
		}
		gcd := new(big.Int)
		for i := range q {
			if !qb[i].IsInt64() || qb[i].Int64() != q[i] {
				t.Fatalf("%s: q[%d] = %d, big form %s", g.Name, i, q[i], qb[i])
			}
			gcd.GCD(nil, nil, gcd, qb[i])
		}
		if gcd.Cmp(big.NewInt(1)) != 0 {
			t.Errorf("%s: q = %v is not minimal (gcd %s)", g.Name, q, gcd)
		}
		for _, b := range g.Buffers() {
			lhs := new(big.Int).Mul(qb[b.Src], big.NewInt(b.TotalIn()))
			rhs := new(big.Int).Mul(qb[b.Dst], big.NewInt(b.TotalOut()))
			if lhs.Cmp(rhs) != 0 {
				t.Errorf("%s: buffer %s unbalanced: %s ≠ %s", g.Name, b.Name, lhs, rhs)
			}
		}
	}
}
