package main

import (
	"testing"
	"time"
)

// TestPerPhaseScalesToTheReferenceHost runs the same work in two phases, the
// second on a host at half the reference speed: scaled, both phases read
// the same rate and CPU time per analysis.
func TestPerPhaseScalesToTheReferenceHost(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(s float64) time.Time { return t0.Add(time.Duration(s * float64(time.Second))) }
	phases := []phase{
		// 100 analyses in 1 s, on 1 s of CPU, at the reference speed.
		{from: tick{at: at(0)}, to: tick{at: at(1), fleetCPU: clockTicks}, speed: referenceSpeed},
		// 50 analyses in 1 s, on 1 s of CPU of which half fell in the pause
		// before the phase, at half of it.
		{paused: tick{fleetCPU: clockTicks}, from: tick{at: at(2), fleetCPU: 3 * clockTicks / 2}, to: tick{at: at(3), fleetCPU: 2 * clockTicks}, speed: referenceSpeed / 2},
	}
	var outs []outcome
	var in []int
	for i := range 150 {
		p := min(i/100, 1)
		outs = append(outs, outcome{req: request{path: "/analyze"}})
		in = append(in, p)
	}
	rates, cpuMS, _, _ := perPhase(outs, in, phases)
	for p := range phases {
		if rates[p] != 100 || cpuMS[p] != 10 {
			t.Errorf("phase %d: %v analyses/s and %v ms per analysis at the reference speed, want 100 and 10", p, rates[p], cpuMS[p])
		}
	}
}

func TestByPhaseDropsCompletionsOutsidePhases(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	phases := []phase{{from: tick{at: at(100)}, to: tick{at: at(900)}}, {from: tick{at: at(1100)}, to: tick{at: at(1900)}}}
	var outs []outcome
	for _, end := range []int{50, 100, 101, 900, 950, 1500, 1900, 2000} {
		outs = append(outs, outcome{end: at(end)})
	}
	kept, in := byPhase(outs, phases)
	var got []int
	for i, o := range kept {
		got = append(got, int(o.end.Sub(t0)/time.Millisecond), in[i])
	}
	want := []int{101, 0, 900, 0, 1500, 1, 1900, 1}
	if len(got) != len(want) {
		t.Fatalf("kept (end ms, phase) %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("kept (end ms, phase) %v, want %v", got, want)
		}
	}
}
