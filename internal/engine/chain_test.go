package engine

import (
	"context"
	"strings"
	"testing"

	"kiter/internal/faultinject"
	"kiter/internal/gen"
	"kiter/internal/kperiodic"
	"kiter/internal/symbexec"
)

// arm activates a fault set for the rest of the test.
func arm(t *testing.T, spec string) {
	t.Helper()
	set, err := faultinject.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Activate(set)
	t.Cleanup(func() { faultinject.Activate(nil) })
}

// TestChainFallbackOrder: the default method answers with K-Iter, falls
// back to symbolic execution when K-Iter fails, to the 1-periodic method
// when both fail, and reports K-Iter's error when every step fails. Each
// answer is counted under the step that produced it.
func TestChainFallbackOrder(t *testing.T) {
	want := figure2Result(t)
	periodic, err := kperiodic.Evaluate1(gen.Figure2(), kperiodic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		faults  string
		method  Method
		period  string
		optimal bool
	}{
		{"", MethodKIter, want, true},
		{"solver.kiter:error", MethodSymbolic, want, true},
		{"solver.kiter:error,solver.symbolic:error", MethodPeriodic, periodic.Period.String(), periodic.Optimal},
		{"solver.kiter:error,solver.symbolic:error,solver.periodic:error", "", "", false},
	}
	for _, c := range cases {
		t.Run(c.faults, func(t *testing.T) {
			if c.faults != "" {
				arm(t, c.faults)
			}
			e := newTestEngine(t, Config{Workers: 1})
			res, err := e.Submit(context.Background(), &Request{Graph: gen.Figure2()})
			if err != nil {
				t.Fatalf("Submit: %v", err)
			}
			tr := res.Throughput
			if c.method == "" {
				if tr.Method != MethodAuto || !strings.Contains(tr.Error, "solver.kiter") {
					t.Fatalf("all steps failed: throughput = %+v, want K-Iter's error", tr)
				}
				return
			}
			if tr.Error != "" || tr.Method != c.method || tr.Period != c.period || tr.Optimal != c.optimal {
				t.Fatalf("throughput = %+v, want %s answering %s (optimal %v)", tr, c.method, c.period, c.optimal)
			}
			var total uint64
			wins := e.Stats().RaceWins
			for _, n := range wins {
				total += n
			}
			if total != 1 || wins[string(c.method)] != 1 {
				t.Fatalf("RaceWins = %v, want one answer from %s", wins, c.method)
			}
		})
	}
}

// TestChainKIterBudgetFallsBackToSymbolic drives the fallback the chain
// exists for without fault injection: K-Iter exceeds its expansion budget
// on a graph that needs several rounds, and symbolic execution answers
// with the same optimum K-Iter finds unbounded.
func TestChainKIterBudgetFallsBackToSymbolic(t *testing.T) {
	g := gen.KIterChain(4)
	ref, err := kperiodic.KIter(g, kperiodic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Iterations < 2 {
		t.Fatalf("KIterChain(4) converged in %d round; the test needs a graph whose K grows", ref.Iterations)
	}
	// Room for the first round's K = 1 expansion, not for the grown K.
	first, err := kperiodic.Evaluate1(g, kperiodic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(t, Config{Workers: 1, Options: kperiodic.Options{MaxNodes: int64(first.Nodes)}})
	res, err := e.Submit(context.Background(), &Request{Graph: g})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	tr := res.Throughput
	if tr.Method != MethodSymbolic || !tr.Optimal || tr.Period != ref.Period.String() {
		t.Fatalf("throughput = %+v, want symbolic answering %s", tr, ref.Period)
	}
}

// TestChainSkipsFailedSymbolicSection: when the job's own symbolic
// section already exhausted its budget, the chain does not run symbolic
// execution a second time and goes from K-Iter straight to the 1-periodic
// method.
func TestChainSkipsFailedSymbolicSection(t *testing.T) {
	arm(t, "solver.kiter:error,solver.symbolic:latency:1ns")
	e := newTestEngine(t, Config{Workers: 1, Symbolic: symbexec.Options{MaxEvents: 1}})
	res, err := e.Submit(context.Background(), &Request{
		Graph:    gen.Figure2(),
		Analyses: []AnalysisKind{AnalysisThroughput, AnalysisSymbolic},
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if res.Symbolic == nil || res.Symbolic.Error == "" {
		t.Fatalf("symbolic section = %+v, want a budget failure", res.Symbolic)
	}
	if res.Throughput.Method != MethodPeriodic {
		t.Fatalf("throughput = %+v, want the 1-periodic answer", res.Throughput)
	}
	if n := faultinject.Fired("solver.symbolic"); n != 0 {
		t.Fatalf("symbolic step ran %d times after its section failed", n)
	}
}

// TestChainMatchesKIterOnPaperGraphs: on the paper's Table 1 graphs the
// default method is K-Iter alone — same period, certified optimal, no
// fallback taken.
func TestChainMatchesKIterOnPaperGraphs(t *testing.T) {
	graphs := append(gen.ActualDSP().Graphs, gen.MimicDSP(4, 1).Graphs...)
	e := newTestEngine(t, Config{Workers: 2})
	for _, g := range graphs {
		ref, err := kperiodic.KIter(g, kperiodic.Options{})
		if err != nil {
			t.Fatalf("%s: reference KIter: %v", g.Name, err)
		}
		res, err := e.Submit(context.Background(), &Request{Graph: g})
		if err != nil {
			t.Fatalf("%s: Submit: %v", g.Name, err)
		}
		tr := res.Throughput
		if tr.Method != MethodKIter || !tr.Optimal || tr.Period != ref.Period.String() {
			t.Fatalf("%s: throughput = %+v, want K-Iter's %s", g.Name, tr, ref.Period)
		}
	}
	if s := e.Stats(); s.RaceWins["symbolic"]+s.RaceWins["periodic"] != 0 {
		t.Fatalf("fallbacks taken on paper graphs: %v", s.RaceWins)
	}
}
