// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section 4). Run with:
//
//	go test -bench=. -benchmem
//
// BenchmarkTable1_* covers the four SDFG categories × three optimal
// methods; BenchmarkTable2_* covers the industrial and synthetic CSDFGs ×
// three methods (with and without buffer bounds); BenchmarkFig* covers the
// figure reproductions; BenchmarkAblation* covers the design choices
// listed under README's "Generated stand-ins and ablations". Absolute
// numbers are machine-specific; the shapes to check are listed there too.
package kiter_test

import (
	"math/rand"
	"sync"
	"testing"

	"kiter/internal/bench"
	"kiter/internal/csdf"
	"kiter/internal/gen"
	"kiter/internal/kperiodic"
	"kiter/internal/mcr"
	"kiter/internal/rat"
	"kiter/internal/sizing"
	"kiter/internal/symbexec"
)

// Benchmark-scale knobs: a handful of graphs per random category keeps a
// full -bench=. run in minutes; cmd/benchtables scales to paper-size
// suites via flags.
const (
	benchMimic       = 5
	benchLgHSDF      = 5
	benchLgTransient = 5
	benchSeed        = 1
	benchSymBudget   = 1_000_000
)

var (
	suiteOnce   sync.Once
	suiteCache  []gen.Suite
	table2Once  sync.Once
	table2Cache map[string]*csdf.Graph
)

func table1Suites() []gen.Suite {
	suiteOnce.Do(func() {
		suiteCache = bench.Table1Suites(benchMimic, benchLgHSDF, benchLgTransient, benchSeed)
	})
	return suiteCache
}

// table2Graphs builds (once) the unbounded and bounded stand-ins small
// enough to benchmark repeatedly.
func table2Graphs(tb testing.TB) map[string]*csdf.Graph {
	table2Once.Do(func() {
		table2Cache = map[string]*csdf.Graph{}
		for _, spec := range gen.IndustrialSpecs() {
			g, err := gen.Industrial(spec)
			if err != nil {
				continue
			}
			table2Cache[spec.Name] = g
			if spec.Tasks <= 300 { // bounded variants: skip the heaviest
				if b, err := gen.IndustrialBounded(spec); err == nil {
					table2Cache[spec.Name+"+buffers"] = b
				}
			}
		}
		for _, spec := range gen.SyntheticSpecs()[:3] { // graph1..graph3
			if b, err := gen.IndustrialBounded(spec); err == nil {
				table2Cache[spec.Name] = b
			}
		}
	})
	if len(table2Cache) == 0 {
		tb.Fatal("no table 2 graphs generated")
	}
	return table2Cache
}

func benchMethodOnSuite(b *testing.B, graphs []*csdf.Graph, m bench.Method) {
	lim := bench.Limits{SymbolicMaxEvents: benchSymBudget}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range graphs {
			out := bench.Run(g, m, lim)
			if out.Err != nil && !out.Skipped {
				b.Fatalf("%s on %s: %v", m, g.Name, out.Err)
			}
		}
	}
}

// --- Table 1: SDFG categories × optimal methods -------------------------

func BenchmarkTable1(b *testing.B) {
	for _, suite := range table1Suites() {
		for _, m := range []bench.Method{bench.MethodKIter, bench.MethodExpansion, bench.MethodSymbolic} {
			suite, m := suite, m
			b.Run(suite.Name+"/"+string(m), func(b *testing.B) {
				benchMethodOnSuite(b, suite.Graphs, m)
			})
		}
	}
}

// --- Table 2: CSDFG applications × methods ------------------------------

func BenchmarkTable2(b *testing.B) {
	graphs := table2Graphs(b)
	// Stable presentation order.
	names := []string{
		"BlackScholes", "Echo", "JPEG2000", "Pdetect", "H264Enc",
		"BlackScholes+buffers", "Echo+buffers", "JPEG2000+buffers", "Pdetect+buffers",
		"graph1", "graph2", "graph3",
	}
	for _, name := range names {
		g, ok := graphs[name]
		if !ok {
			continue
		}
		for _, m := range []bench.Method{bench.MethodPeriodic, bench.MethodKIter, bench.MethodSymbolic} {
			g, m := g, m
			b.Run(name+"/"+string(m), func(b *testing.B) {
				lim := bench.Limits{SymbolicMaxEvents: benchSymBudget}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					out := bench.Run(g, m, lim)
					_ = out // N/S and budget outcomes are legitimate rows
				}
			})
		}
	}
}

// --- Figures -------------------------------------------------------------

// BenchmarkFig2RepetitionVector covers the consistency analysis of the
// running example (Figure 2).
func BenchmarkFig2RepetitionVector(b *testing.B) {
	g := gen.Figure2()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := g.RepetitionVector(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3SymbolicASAP regenerates the self-timed schedule prefix of
// Figure 3.
func BenchmarkFig3SymbolicASAP(b *testing.B) {
	g := gen.Figure2()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := symbexec.Simulate(g, 26); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4EvaluateK evaluates the fixed-K schedule of Figure 4 (the
// optimal periodicity vector of the running example).
func BenchmarkFig4EvaluateK(b *testing.B) {
	g := gen.Figure2()
	q, err := g.RepetitionVector()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kperiodic.EvaluateK(g, q, kperiodic.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5BivaluedGraph constructs the bi-valued graph of Figure 5.
func BenchmarkFig5BivaluedGraph(b *testing.B) {
	g := gen.Figure2()
	K := []int64{1, 1, 1, 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := kperiodic.BivaluedGraph(g, K, kperiodic.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (README, "Generated stand-ins and ablations") -------------

// BenchmarkAblationCertification isolates the cost of the exact
// certification pass on top of the float64 Howard fast path.
func BenchmarkAblationCertification(b *testing.B) {
	suites := table1Suites()
	for _, mode := range []struct {
		name string
		opt  kperiodic.Options
	}{
		{"certified", kperiodic.Options{}},
		{"float-only", kperiodic.Options{SkipCertify: true}},
	} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, g := range suites[0].Graphs { // ActualDSP
					if _, err := kperiodic.KIter(g, mode.opt); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkAblationKUpdate compares the paper's lcm periodicity update
// with the jump-to-q ablation (FullUpdate).
func BenchmarkAblationKUpdate(b *testing.B) {
	graphs := []*csdf.Graph{gen.Figure2(), gen.MultiRateCycle(), gen.CyclicCSDF(), gen.SampleRateConverter()}
	for _, mode := range []struct {
		name string
		opt  kperiodic.Options
	}{
		{"lcm-update", kperiodic.Options{}},
		{"full-update", kperiodic.Options{FullUpdate: true}},
	} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, g := range graphs {
					if _, err := kperiodic.KIter(g, mode.opt); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkAblationMCREngine compares the three MCRP engines on random
// strongly-connected bi-valued graphs: Howard+certification (the default),
// the float-free exact refinement loop, and Karp's max cycle mean on the
// unit-time special case.
func BenchmarkAblationMCREngine(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	mkGraph := func(n int, unitH bool) *mcr.Graph {
		g := mcr.New(n)
		for i := 0; i < n; i++ {
			h := rat.FromInt(1)
			if !unitH {
				h = rat.NewRat(1+rng.Int63n(9), 1+rng.Int63n(7))
			}
			g.AddArc(i, (i+1)%n, rng.Int63n(50), h)
		}
		for e := 0; e < 3*n; e++ {
			h := rat.FromInt(1)
			if !unitH {
				h = rat.NewRat(1+rng.Int63n(9), 1+rng.Int63n(7))
			}
			g.AddArc(rng.Intn(n), rng.Intn(n), rng.Int63n(50), h)
		}
		return g
	}
	ratGraph := mkGraph(200, false)
	unitGraph := mkGraph(200, true)
	b.Run("howard-certified", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := mcr.Solve(ratGraph, mcr.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("howard-float", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := mcr.Solve(ratGraph, mcr.Options{SkipCertify: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("exact-refinement", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := mcr.SolveExact(ratGraph); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("karp-unit-time", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := mcr.MaxCycleMean(unitGraph); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBufferSizing covers the sizing extension: throughput-preserving
// per-buffer capacities on the running example.
func BenchmarkBufferSizing(b *testing.B) {
	g := gen.Figure2()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := sizing.OptimalCapacities(g, kperiodic.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
