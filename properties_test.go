// Metamorphic and property-based tests tying the analyses together: known
// scaling laws of dataflow throughput must hold across every engine. These
// complement the per-package unit tests and the symbolic-execution
// cross-validation in internal/gen.
package kiter_test

import (
	"math/rand"
	"testing"

	"kiter"

	"kiter/internal/csdf"
	"kiter/internal/gen"
	"kiter/internal/kperiodic"
	"kiter/internal/mcr"
	"kiter/internal/rat"
	"kiter/internal/symbexec"
)

// TestPropertyDurationScaling: multiplying all durations by c multiplies
// the optimal period by exactly c (time-rescaling invariance), for K-Iter,
// symbolic execution and the 1-periodic method, whose bound scales the
// same way.
func TestPropertyDurationScaling(t *testing.T) {
	for seed := int64(300); seed < 312; seed++ {
		g, err := gen.RandomSmall(seed)
		if err != nil {
			t.Fatal(err)
		}
		base, err := kperiodic.KIter(g, kperiodic.Options{})
		if err != nil {
			t.Fatal(err)
		}
		const c = 3
		scaled := g.ScaleDurations(c)
		got, err := kperiodic.KIter(scaled, kperiodic.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := base.Period.Mul(rat.FromInt(c))
		if got.Period.Cmp(want) != 0 {
			t.Errorf("seed %d: Ω(3·d) = %s, want 3·Ω(d) = %s", seed, got.Period, want)
		}
		sym, err := symbexec.Run(scaled, symbexec.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if sym.Period.Cmp(want) != 0 {
			t.Errorf("seed %d: symbolic Ω(3·d) = %s, want %s", seed, sym.Period, want)
		}
		base1, err := kperiodic.Evaluate1(g, kperiodic.Options{})
		if err != nil {
			t.Fatal(err)
		}
		got1, err := kperiodic.Evaluate1(scaled, kperiodic.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if want1 := base1.Period.Mul(rat.FromInt(c)); got1.Period.Cmp(want1) != 0 {
			t.Errorf("seed %d: 1-periodic Ω(3·d) = %s, want 3·Ω(d) = %s", seed, got1.Period, want1)
		}
	}
}

// TestPropertyRenaming: renaming the graph, every task and every buffer
// changes neither the structural fingerprint nor the optimal period.
func TestPropertyRenaming(t *testing.T) {
	for seed := int64(370); seed < 382; seed++ {
		g, err := gen.RandomSmall(seed)
		if err != nil {
			t.Fatal(err)
		}
		r := csdf.NewGraph("renamed-" + g.Name)
		for _, task := range g.Tasks() {
			r.AddTask("x-"+task.Name, task.Durations)
		}
		for _, b := range g.Buffers() {
			r.AddBuffer("y-"+b.Name, b.Src, b.Dst, b.In, b.Out, b.Initial)
		}
		if got, want := r.FingerprintHex(), g.FingerprintHex(); got != want {
			t.Errorf("seed %d: renaming changed the fingerprint from %s to %s", seed, want, got)
		}
		base, err := kperiodic.KIter(g, kperiodic.Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := kperiodic.KIter(r, kperiodic.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got.Period.Cmp(base.Period) != 0 {
			t.Errorf("seed %d: renaming changed Ω from %s to %s", seed, base.Period, got.Period)
		}
	}
}

// TestPropertyTokenMonotonicity: adding initial tokens to any buffer can
// only relax the schedule, so the optimal period never increases.
func TestPropertyTokenMonotonicity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for seed := int64(320); seed < 332; seed++ {
		g, err := gen.RandomSmall(seed)
		if err != nil {
			t.Fatal(err)
		}
		base, err := kperiodic.KIter(g, kperiodic.Options{})
		if err != nil {
			t.Fatal(err)
		}
		relaxed := g.Clone()
		bid := csdf.BufferID(rng.Intn(relaxed.NumBuffers()))
		relaxed.Buffer(bid).Initial += 1 + rng.Int63n(5)
		got, err := kperiodic.KIter(relaxed, kperiodic.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got.Period.Cmp(base.Period) > 0 {
			t.Errorf("seed %d: adding tokens increased Ω from %s to %s",
				seed, base.Period, got.Period)
		}
	}
}

// TestPropertyKRefinement: refining the periodicity vector component-wise
// (K → m·K) can only improve the fixed-K bound (the schedule space grows).
func TestPropertyKRefinement(t *testing.T) {
	for seed := int64(340); seed < 352; seed++ {
		g, err := gen.RandomSmall(seed)
		if err != nil {
			t.Fatal(err)
		}
		q, err := g.RepetitionVector()
		if err != nil {
			t.Fatal(err)
		}
		K1 := make([]int64, len(q))
		K2 := make([]int64, len(q))
		for i := range q {
			K1[i] = 1
			K2[i] = 2
		}
		e1, err := kperiodic.EvaluateK(g, K1, kperiodic.Options{})
		if err != nil {
			t.Fatal(err)
		}
		e2, err := kperiodic.EvaluateK(g, K2, kperiodic.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if e2.Period.Cmp(e1.Period) > 0 {
			t.Errorf("seed %d: Ω(K=2) = %s exceeds Ω(K=1) = %s",
				seed, e2.Period, e1.Period)
		}
		// And the optimum lower-bounds every fixed-K evaluation.
		opt, err := kperiodic.KIter(g, kperiodic.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if opt.Period.Cmp(e2.Period) > 0 {
			t.Errorf("seed %d: optimal Ω = %s exceeds Ω(K=2) = %s",
				seed, opt.Period, e2.Period)
		}
	}
}

// TestPropertyMCRScaling: scaling all costs by c scales the ratio by c;
// scaling all times by c divides it by c.
func TestPropertyMCRScaling(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		n := 3 + rng.Intn(8)
		type arcSpec struct {
			from, to int
			l        int64
			h        rat.Rat
		}
		var arcs []arcSpec
		for i := 0; i < n; i++ {
			arcs = append(arcs, arcSpec{i, (i + 1) % n, rng.Int63n(20), rat.NewRat(1+rng.Int63n(6), 1+rng.Int63n(4))})
		}
		for e := rng.Intn(n); e > 0; e-- {
			arcs = append(arcs, arcSpec{rng.Intn(n), rng.Intn(n), rng.Int63n(20), rat.NewRat(1+rng.Int63n(6), 1+rng.Int63n(4))})
		}
		build := func(lScale int64, hScale rat.Rat) *mcr.Graph {
			g := mcr.New(n)
			for _, a := range arcs {
				g.AddArc(a.from, a.to, a.l*lScale, a.h.Mul(hScale))
			}
			return g
		}
		base, err := mcr.Solve(build(1, rat.FromInt(1)), mcr.Options{})
		if err != nil {
			t.Fatal(err)
		}
		costScaled, err := mcr.Solve(build(5, rat.FromInt(1)), mcr.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if costScaled.Ratio.Cmp(base.Ratio.Mul(rat.FromInt(5))) != 0 {
			t.Errorf("trial %d: 5·L ratio = %s, want %s", trial, costScaled.Ratio,
				base.Ratio.Mul(rat.FromInt(5)))
		}
		timeScaled, err := mcr.Solve(build(1, rat.FromInt(4)), mcr.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if timeScaled.Ratio.Cmp(base.Ratio.Div(rat.FromInt(4))) != 0 {
			t.Errorf("trial %d: 4·H ratio = %s, want %s", trial, timeScaled.Ratio,
				base.Ratio.Div(rat.FromInt(4)))
		}
	}
}

// TestPropertyRoundTripStability: serializing to JSON and XML and back
// never changes any analysis result.
func TestPropertyRoundTripStability(t *testing.T) {
	for seed := int64(360); seed < 368; seed++ {
		g, err := gen.RandomSmall(seed)
		if err != nil {
			t.Fatal(err)
		}
		want, err := kperiodic.KIter(g, kperiodic.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, ext := range []string{"json", "xml"} {
			path := t.TempDir() + "/g." + ext
			if err := kiter.WriteFile(path, g); err != nil {
				t.Fatal(err)
			}
			back, err := kiter.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			got, err := kperiodic.KIter(back, kperiodic.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if got.Period.Cmp(want.Period) != 0 {
				t.Errorf("seed %d %s: Ω changed from %s to %s", seed, ext, want.Period, got.Period)
			}
		}
	}
}

// TestPropertySimulationMatchesSchedulePrefix: the throughput reached by
// the ASAP simulation over a long horizon approaches the analytical
// optimum from below (Little's-law style sanity bound).
func TestPropertySimulationConvergence(t *testing.T) {
	g := gen.Figure2()
	res, err := kperiodic.KIter(g, kperiodic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	horizon := int64(2000)
	trace, dead, err := symbexec.Simulate(g, horizon)
	if err != nil || dead {
		t.Fatalf("simulate: %v dead=%v", err, dead)
	}
	// Count completed iterations of task D (q_D = 1): each firing of D is
	// one graph iteration.
	var dFirings int64
	for _, f := range trace {
		if g.Task(f.Task).Name == "D" {
			dFirings++
		}
	}
	// Over `horizon` time units at Ω = 13, roughly horizon/13 iterations
	// complete; allow the transient a ±2 margin.
	expect := horizon/13 - 2
	if dFirings < expect {
		t.Errorf("D fired %d times in %d units, expected ≥ %d (Ω = %s)",
			dFirings, horizon, expect, res.Period)
	}
	if dFirings > horizon/13+2 {
		t.Errorf("D fired %d times, faster than the proven optimum Ω = %s",
			dFirings, res.Period)
	}
}
