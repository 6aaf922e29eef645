package gen_test

import (
	"errors"
	"testing"
	"time"

	"kiter/internal/csdf"
	"kiter/internal/gen"
	"kiter/internal/kperiodic"
	"kiter/internal/symbexec"
)

func TestFixturesValidAndConsistent(t *testing.T) {
	fig1, _ := gen.Figure1()
	graphs := []*csdf.Graph{
		fig1,
		gen.Figure2(),
		gen.TwoTaskChain(1, 2),
		gen.HSDFRing(5, []int64{1, 2}, 2),
		gen.UpDownSampler(3, 2),
		gen.SampleRateConverter(),
		gen.CyclicCSDF(),
		gen.MultiRateCycle(),
		gen.DeadlockedRing(),
		gen.SatelliteReceiver(),
		gen.H263Decoder(),
		gen.Modem(),
		gen.MP3Playback(),
	}
	for _, g := range graphs {
		if err := g.Validate(); err != nil {
			t.Errorf("%s: Validate: %v", g.Name, err)
		}
		if !g.Consistent() {
			t.Errorf("%s: not consistent", g.Name)
		}
	}
}

func TestActualDSPLive(t *testing.T) {
	for _, g := range gen.ActualDSP().Graphs {
		res, err := kperiodic.KIter(g, kperiodic.Options{})
		if err != nil {
			t.Errorf("%s: KIter: %v", g.Name, err)
			continue
		}
		if res.Period.Sign() <= 0 {
			t.Errorf("%s: non-positive period %s", g.Name, res.Period)
		}
	}
}

func TestRandomDeterminism(t *testing.T) {
	p := gen.Profile{
		Name: "det", Seed: 42, Tasks: 6, Buffers: 9,
		MaxPhases: 2, MaxDuration: 4, BackEdgeFrac: 0.3, TokensSlack: 2, Ring: true,
	}
	a, err := gen.Random(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := gen.Random(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumTasks() != b.NumTasks() || a.NumBuffers() != b.NumBuffers() {
		t.Fatal("same profile produced different sizes")
	}
	for i := 0; i < a.NumBuffers(); i++ {
		ba, bb := a.Buffer(csdf.BufferID(i)), b.Buffer(csdf.BufferID(i))
		if ba.Src != bb.Src || ba.Dst != bb.Dst || ba.Initial != bb.Initial {
			t.Fatalf("buffer %d differs between identical profiles", i)
		}
	}
}

// TestRandomOneTaskWithBuffersFails: a buffer needs two distinct tasks, so
// a one-task profile that asks for buffers is an error, returned at once
// rather than looping on draws that can never place one.
func TestRandomOneTaskWithBuffersFails(t *testing.T) {
	for _, p := range []gen.Profile{
		{Name: "tree", Seed: 1, Tasks: 1, Buffers: 1},
		{Name: "ring", Seed: 1, Tasks: 1, Buffers: 3, Ring: true, MaxSpan: 2},
	} {
		done := make(chan error, 1)
		go func() {
			_, err := gen.Random(p)
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("%s: Random accepted %d buffers on one task", p.Name, p.Buffers)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: Random did not return within 10s", p.Name)
		}
	}
}

func TestRandomGraphsAreLiveAndConsistent(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		g, err := gen.RandomSmall(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !g.Consistent() {
			t.Fatalf("seed %d: inconsistent", seed)
		}
		if _, err := kperiodic.KIter(g, kperiodic.Options{}); err != nil {
			t.Fatalf("seed %d: KIter on certified-live graph: %v", seed, err)
		}
	}
}

// TestCrossValidationKIterVsSymbolic is the central correctness experiment:
// on randomly generated live CSDF graphs, the K-Iter analytical throughput
// must equal the throughput observed by exact symbolic execution.
func TestCrossValidationKIterVsSymbolic(t *testing.T) {
	trials := int64(60)
	if testing.Short() {
		trials = 15
	}
	for seed := int64(0); seed < trials; seed++ {
		g, err := gen.RandomSmall(seed)
		if err != nil {
			t.Fatalf("seed %d: generate: %v", seed, err)
		}
		ki, err := kperiodic.KIter(g, kperiodic.Options{})
		if err != nil {
			t.Fatalf("seed %d: KIter: %v", seed, err)
		}
		sym, err := symbexec.Run(g, symbexec.Options{})
		if err != nil {
			t.Fatalf("seed %d: symbolic: %v", seed, err)
		}
		if ki.Period.Cmp(sym.Period) != 0 {
			t.Errorf("seed %d (%s): K-Iter Ω = %s ≠ symbolic Ω = %s",
				seed, g.Name, ki.Period, sym.Period)
		}
		if !ki.Optimal || !ki.Certified {
			t.Errorf("seed %d: result not optimal/certified", seed)
		}
	}
}

func TestCrossValidationWithCapacities(t *testing.T) {
	trials := int64(30)
	if testing.Short() {
		trials = 8
	}
	checked := 0
	for seed := int64(100); seed < 100+trials; seed++ {
		g, err := gen.RandomSmall(seed)
		if err != nil {
			continue
		}
		bounded, err := g.ScaleCapacities(2).WithCapacities()
		if err != nil {
			continue
		}
		ki, kerr := kperiodic.KIter(bounded, kperiodic.Options{})
		sym, serr := symbexec.Run(bounded, symbexec.Options{})
		if kerr != nil || serr != nil {
			// Both analyses must agree on deadlock too.
			var kd *kperiodic.DeadlockError
			kiDead := errors.As(kerr, &kd)
			symDead := errors.Is(serr, symbexec.ErrDeadlock)
			if kiDead != symDead {
				t.Errorf("seed %d: deadlock disagreement: kiter=%v symbolic=%v", seed, kerr, serr)
			}
			continue
		}
		checked++
		if ki.Period.Cmp(sym.Period) != 0 {
			t.Errorf("seed %d (%s): K-Iter Ω = %s ≠ symbolic Ω = %s",
				seed, bounded.Name, ki.Period, sym.Period)
		}
	}
	if checked == 0 {
		t.Error("no capacity-bounded instance was checked")
	}
}

func TestMimicDSPSuite(t *testing.T) {
	s := gen.MimicDSP(10, 1)
	if len(s.Graphs) < 8 {
		t.Fatalf("only %d/10 MimicDSP graphs generated", len(s.Graphs))
	}
	for _, g := range s.Graphs {
		if !g.IsSDF() {
			t.Errorf("%s: not an SDF graph", g.Name)
		}
		if !g.Consistent() {
			t.Errorf("%s: inconsistent", g.Name)
		}
	}
}

func TestLgHSDFSuiteHasLargeQ(t *testing.T) {
	s := gen.LgHSDF(5, 1)
	if len(s.Graphs) < 3 {
		t.Fatalf("only %d/5 LgHSDF graphs generated", len(s.Graphs))
	}
	for _, g := range s.Graphs {
		sq, err := g.SumRepetition()
		if err != nil {
			t.Fatal(err)
		}
		if sq.Int64() < int64(g.NumTasks())*10 {
			t.Errorf("%s: Σq = %s too small for LgHSDF", g.Name, sq)
		}
	}
}

func TestLgTransientSuiteIsHomogeneous(t *testing.T) {
	s := gen.LgTransient(3, 1)
	for _, g := range s.Graphs {
		q, err := g.RepetitionVector()
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range q {
			if v != 1 {
				t.Errorf("%s: q contains %d, want all 1 (HSDF)", g.Name, v)
				break
			}
		}
		if g.NumTasks() < 181 || g.NumTasks() > 300 {
			t.Errorf("%s: %d tasks outside the published 181–300", g.Name, g.NumTasks())
		}
	}
}

func TestIndustrialSpecsMatchPublishedSizes(t *testing.T) {
	want := map[string][2]int{
		"BlackScholes": {41, 40},
		"Echo":         {240, 703},
		"JPEG2000":     {38, 82},
		"Pdetect":      {58, 76},
		"H264Enc":      {665, 3128},
	}
	for _, spec := range gen.IndustrialSpecs() {
		w, ok := want[spec.Name]
		if !ok {
			t.Errorf("unexpected spec %s", spec.Name)
			continue
		}
		if spec.Tasks != w[0] || spec.Buffers != w[1] {
			t.Errorf("%s: spec = (%d,%d), want (%d,%d)",
				spec.Name, spec.Tasks, spec.Buffers, w[0], w[1])
		}
	}
}

func TestIndustrialBlackScholes(t *testing.T) {
	spec := gen.IndustrialSpecs()[0]
	g, err := gen.Industrial(spec)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumTasks() != spec.Tasks || g.NumBuffers() < spec.Buffers {
		t.Errorf("size = (%d,%d), want (%d,≥%d)",
			g.NumTasks(), g.NumBuffers(), spec.Tasks, spec.Buffers)
	}
	res, err := kperiodic.KIter(g, kperiodic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Optimal {
		t.Error("K-Iter did not certify optimality")
	}
	bounded, err := gen.IndustrialBounded(spec)
	if err != nil {
		t.Fatal(err)
	}
	if bounded.NumBuffers() != 2*g.NumBuffers() {
		t.Errorf("bounded variant has %d buffers, want %d",
			bounded.NumBuffers(), 2*g.NumBuffers())
	}
}

func TestSyntheticSpecsSizes(t *testing.T) {
	specs := gen.SyntheticSpecs()
	if len(specs) != 5 {
		t.Fatalf("want 5 synthetic specs, got %d", len(specs))
	}
	if specs[3].Tasks != 2426 || specs[4].Buffers != 4894 {
		t.Error("synthetic sizes drifted from Table 2")
	}
}
