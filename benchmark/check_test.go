package main

import (
	"bytes"
	"testing"

	"kiter/internal/gen"
	"kiter/internal/sdf3x"
)

func TestReferenceMatches(t *testing.T) {
	c := newChecker()
	live := c.reference(gen.Figure2()) // Ω* = 13
	dead := c.reference(gen.DeadlockedRing())
	if live.err != nil || live.deadlock || !dead.deadlock {
		t.Fatalf("references: live %+v, dead %+v", live, dead)
	}
	cases := []struct {
		ref  reference
		p    point
		good bool
	}{
		{live, point{period: "13"}, true},
		{live, point{period: "26/2"}, true},
		{live, point{period: "14"}, false},
		{live, point{period: "nonsense"}, false},
		{live, point{errText: "kperiodic: graph deadlocks"}, false},
		{dead, point{errText: "kperiodic: graph deadlocks"}, true},
		{dead, point{period: "13"}, false},
	}
	for i, tc := range cases {
		if err := tc.ref.matches(tc.p); (err == nil) != tc.good {
			t.Errorf("case %d: matches(%+v) = %v, want good=%v", i, tc.p, err, tc.good)
		}
	}
}

func TestCheckCountsWrongAnswers(t *testing.T) {
	wl, err := newWorkload(analyzeWarm, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := newChecker()
	var outs []outcome
	for seq := uint64(0); seq < 6; seq++ {
		req := wl.request(seq)
		// Give the first three their reference answer.
		period := "1"
		if seq < 3 {
			g, err := sdf3x.ReadJSON(bytes.NewReader(req.body))
			if err != nil {
				t.Fatal(err)
			}
			period = c.reference(g).period.RatString()
		}
		// Outcomes do not keep their bodies.
		req.body = nil
		outs = append(outs, outcome{req: req, points: []point{{period: period}}})
	}
	compared, err := c.check(wl, outs, 2)
	if compared != 6 || err == nil {
		t.Fatalf("check compared %d answers, error %v; want 6 and a mismatch", compared, err)
	}
	for i, o := range outs {
		if want := min(i/3, 1); o.failed != want {
			t.Errorf("outcome %d: %d failed, want %d", i, o.failed, want)
		}
	}
}
