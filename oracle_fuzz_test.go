package kiter_test

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"kiter/internal/csdf"
	"kiter/internal/gen"
	"kiter/internal/kperiodic"
	"kiter/internal/sdf3x"
	"kiter/internal/symbexec"
)

// FuzzKIterOracle cross-checks the throughput engines on gen.Random
// graphs built from the fuzzed profile fields, with every initial token
// count divided by tokenDiv when it exceeds 1 (which deadlocks some
// graphs). Within a node budget:
//   - K-Iter's Ω equals the expansion's (K = q), and symbolic execution's
//     wherever that stays within its event budget;
//   - the 1-periodic period is at least K-Iter's optimum;
//   - the three methods agree on whether the graph deadlocks;
//   - K-Iter's schedule at its final K replays two hyperperiods without a
//     negative marking or an overlap;
//   - a WriteJSON → ReadJSON and a WriteXML → ReadXML round trip each
//     keep K-Iter's Ω.
//
// The seed corpus in testdata/fuzz/FuzzKIterOracle holds ring and
// ring-free profiles, whose back edges leave several strongly connected
// components, and starved ones that deadlock.
func FuzzKIterOracle(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(8), uint8(3), true, uint8(40), uint8(1), uint8(0))
	f.Add(int64(7), uint8(8), uint8(12), uint8(2), false, uint8(30), uint8(1), uint8(0))
	f.Add(int64(3), uint8(6), uint8(9), uint8(3), true, uint8(40), uint8(1), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, tasks, buffers, maxPhases uint8, ring bool, backEdgePct, tokensSlack, tokenDiv uint8) {
		nt := 2 + int(tasks%7) // gen.Random needs two tasks for its extra buffers
		g, err := gen.Random(gen.Profile{
			Name:         "fuzz",
			Seed:         seed,
			Tasks:        nt,
			Buffers:      nt - 1 + int(buffers%10),
			QLadder:      []int64{1, 2, 3, 4, 6},
			MaxPhases:    1 + int(maxPhases%3),
			MaxDuration:  9,
			RateFactor:   1,
			BackEdgeFrac: float64(backEdgePct%101) / 100,
			TokensSlack:  1 + int64(tokensSlack%3),
			Ring:         ring,
		})
		if err != nil {
			t.Skip(err)
		}
		if tokenDiv > 1 {
			for i := range g.Buffers() {
				g.Buffer(csdf.BufferID(i)).Initial /= int64(tokenDiv)
			}
		}
		checkOracle(t, g)
	})
}

// checkOracle applies FuzzKIterOracle's assertions to g.
func checkOracle(t *testing.T, g *csdf.Graph) {
	t.Helper()
	opt := kperiodic.Options{MaxNodes: 5000, MaxPairs: 500_000}
	kr, kerr := kperiodic.KIter(g, opt)
	ex, xerr := kperiodic.Expansion(g, opt)
	var tooLarge *kperiodic.ErrTooLarge
	if errors.As(kerr, &tooLarge) || errors.As(xerr, &tooLarge) {
		t.Skip("beyond the node budget")
	}
	var kd, xd *kperiodic.DeadlockError
	dead := errors.As(kerr, &kd)
	if errors.As(xerr, &xd) != dead {
		t.Fatalf("deadlock verdicts differ: K-Iter %v, expansion %v", kerr, xerr)
	}
	sym, serr := symbexec.Run(g, symbexec.Options{MaxEvents: 200_000})
	symOK := !errors.Is(serr, symbexec.ErrBudget)
	if symOK && errors.Is(serr, symbexec.ErrDeadlock) != dead {
		t.Fatalf("deadlock verdicts differ: K-Iter %v, symbolic execution %v", kerr, serr)
	}
	ev1, err1 := kperiodic.Evaluate1(g, opt)
	if dead {
		if err1 == nil {
			t.Fatalf("K-Iter finds a deadlock, yet a 1-periodic schedule of period %s exists", ev1.Period)
		}
		return
	}
	if kerr != nil || xerr != nil {
		t.Fatalf("K-Iter err %v, expansion err %v", kerr, xerr)
	}
	if !kr.Optimal || kr.Period.Cmp(ex.Period) != 0 {
		t.Fatalf("K-Iter Ω=%s (optimal %v), expansion Ω=%s", kr.Period, kr.Optimal, ex.Period)
	}
	if symOK {
		if serr != nil {
			t.Fatalf("K-Iter Ω=%s, symbolic execution: %v", kr.Period, serr)
		}
		if sym.Period.Cmp(kr.Period) != 0 {
			t.Fatalf("K-Iter Ω=%s, symbolic execution Ω=%s", kr.Period, sym.Period)
		}
	}
	if err1 == nil && ev1.Period.Cmp(kr.Period) < 0 {
		t.Fatalf("1-periodic period %s beats the K-Iter optimum %s", ev1.Period, kr.Period)
	}
	sch, err := kperiodic.ScheduleK(g, kr.K, opt)
	if err != nil {
		t.Fatalf("ScheduleK at K=%v: %v", kr.K, err)
	}
	if err := sch.Validate(g, 2); err != nil {
		t.Fatalf("K-Iter schedule at K=%v: %v", kr.K, err)
	}
	for _, format := range []struct {
		name  string
		write func(io.Writer, *csdf.Graph) error
		read  func(io.Reader) (*csdf.Graph, error)
	}{
		{"JSON", sdf3x.WriteJSON, sdf3x.ReadJSON},
		{"XML", sdf3x.WriteXML, sdf3x.ReadXML},
	} {
		var buf bytes.Buffer
		if err := format.write(&buf, g); err != nil {
			t.Fatalf("%s: %v", format.name, err)
		}
		back, err := format.read(&buf)
		if err != nil {
			t.Fatalf("%s: %v", format.name, err)
		}
		rr, err := kperiodic.KIter(back, opt)
		if err != nil || rr.Period.Cmp(kr.Period) != 0 {
			t.Fatalf("after a %s round trip: K-Iter %v (err %v), before Ω=%s", format.name, rr, err, kr.Period)
		}
	}
}
