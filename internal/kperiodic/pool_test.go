package kperiodic_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"kiter/internal/csdf"
	"kiter/internal/gen"
	"kiter/internal/kperiodic"
)

// poolCase is one solve of the workspace-reuse tests.
type poolCase struct {
	name string
	g    *csdf.Graph
	opt  kperiodic.Options
	// cancelAt, when positive, cancels the run at its cancelAt-th
	// context poll, which lands inside a later round's expansion.
	cancelAt int
}

func (c poolCase) ctx() context.Context {
	if c.cancelAt > 0 {
		return &cancelAfter{Context: context.Background(), n: c.cancelAt}
	}
	return context.Background()
}

// cancelAfter is a context whose Err reports cancellation from its n-th
// poll on, so a run stops at the same point of its expansion every time.
type cancelAfter struct {
	context.Context
	polls, n int
}

func (c *cancelAfter) Err() error {
	c.polls++
	if c.polls >= c.n {
		return context.Canceled
	}
	return nil
}

// rateRing is a two-task SDF ring whose shape is the same for every rate
// pair: A produces p per firing into A→B, B consumes c, and B→A carries
// the mirror rates with p·c tokens, enough for one whole iteration.
func rateRing(p, c int64) *csdf.Graph {
	g := csdf.NewGraph(fmt.Sprintf("ring-%d-%d", p, c))
	a := g.AddSDFTask("A", 2)
	b := g.AddSDFTask("B", 3)
	g.AddSDFBuffer("A->B", a, b, p, c, 0)
	g.AddSDFBuffer("B->A", b, a, c, p, p*c)
	return g
}

func mustEdit(t *testing.T, g *csdf.Graph, edits ...csdf.Edit) *csdf.Graph {
	t.Helper()
	out, err := g.CloneWithEdits(edits...)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// poolCases is the sequence the workspace tests shuffle through the pool.
// Several groups share a shape — the same task and buffer counts and phase
// counts — but differ in rates, tokens or durations: a workspace that kept
// a block cached for buffer i of one graph would replay it, wrongly, for
// buffer i of the next, since the first round of both runs at K = 1.
func poolCases(t *testing.T) []poolCase {
	t.Helper()
	var cases []poolCase
	add := func(name string, g *csdf.Graph, opt kperiodic.Options) {
		cases = append(cases, poolCase{name: name, g: g, opt: opt})
	}
	for seed := int64(400); seed < 440; seed++ {
		g, err := gen.RandomSmall(seed)
		if err != nil {
			t.Fatal(err)
		}
		add(g.Name, g, kperiodic.Options{})
		if seed%4 == 0 {
			add(g.Name+"+token", mustEdit(t, g, csdf.SetInitial(0, g.Buffer(0).Initial+1)), kperiodic.Options{})
			add(g.Name+"×2", g.ScaleDurations(2), kperiodic.Options{})
			add(g.Name+"/auto", g, kperiodic.Options{AutoConcurrency: true})
		}
	}
	fig2 := gen.Figure2()
	add("figure2", fig2, kperiodic.Options{})
	// Same total production, so the same repetition vector and shape.
	add("figure2/rates", mustEdit(t, fig2, csdf.SetProduction(0, 1, 5), csdf.SetProduction(0, 2, 3)), kperiodic.Options{})
	add("figure2/tokens", mustEdit(t, fig2, csdf.SetInitial(2, 5), csdf.SetInitial(3, 14)), kperiodic.Options{})
	bounded, err := fig2.ScaleCapacities(1).WithCapacities()
	if err != nil {
		t.Fatal(err)
	}
	add("figure2+capacities", bounded, kperiodic.Options{})
	for _, pc := range [][2]int64{{1, 1}, {2, 3}, {3, 2}, {4, 6}} {
		add(fmt.Sprintf("ring-%d-%d", pc[0], pc[1]), rateRing(pc[0], pc[1]), kperiodic.Options{})
	}
	add("kiter-chain-4", gen.KIterChain(4), kperiodic.Options{})
	add("kiter-chain-8", gen.KIterChain(8), kperiodic.Options{})
	add("deadlocked", gen.DeadlockedRing(), kperiodic.Options{})
	add("kiter-chain-8/too-large", gen.KIterChain(8), kperiodic.Options{MaxNodes: 100})
	cases = append(cases, poolCase{name: "kiter-chain-8/cancelled", g: gen.KIterChain(8), cancelAt: 120})
	return cases
}

// kiterOutcome is everything a K-Iter run returns.
type kiterOutcome struct {
	res *kperiodic.KIterResult
	err error
}

func (o kiterOutcome) String() string {
	if o.res == nil || o.res.Evaluation == nil {
		return fmt.Sprintf("err=%v", o.err)
	}
	return fmt.Sprintf("Ω=%s K=%v optimal=%v rounds=%d err=%v",
		o.res.Period, o.res.K, o.res.Optimal, o.res.Iterations, o.err)
}

// freshKIter solves every case on a workspace no earlier solve used.
func freshKIter(cases []poolCase) []kiterOutcome {
	want := make([]kiterOutcome, len(cases))
	for i, c := range cases {
		res, err := kperiodic.FreshKIterCtx(c.ctx(), c.g, c.opt)
		want[i] = kiterOutcome{res, err}
	}
	return want
}

// TestPooledWorkspaceMatchesFresh runs a shuffled sequence of graphs
// through pooled workspaces and checks every result — Ω, Optimal, final K,
// rounds, every trace step with its arc and Howard counts, the critical
// circuit, and the error — against a run on a fresh workspace. The
// sequence goes through the pool (KIterCtx) and through one workspace
// carried from graph to graph, which makes the reuse deterministic.
func TestPooledWorkspaceMatchesFresh(t *testing.T) {
	cases := poolCases(t)
	want := freshKIter(cases)
	for i, c := range cases {
		switch {
		case c.cancelAt > 0:
			if !errors.Is(want[i].err, context.Canceled) || len(want[i].res.Trace) < 2 {
				t.Fatalf("%s: want a cancellation after ≥ 2 rounds, got %v", c.name, want[i])
			}
		case c.opt.MaxNodes > 0:
			var tl *kperiodic.ErrTooLarge
			if !errors.As(want[i].err, &tl) || len(want[i].res.Trace) < 2 {
				t.Fatalf("%s: want ErrTooLarge after ≥ 2 rounds, got %v", c.name, want[i])
			}
		}
	}
	reused := kperiodic.ReusedKIter()
	rng := rand.New(rand.NewSource(21))
	for pass := 0; pass < 2; pass++ {
		for _, i := range rng.Perm(len(cases)) {
			c := cases[i]
			res, err := kperiodic.KIterCtx(c.ctx(), c.g, c.opt)
			if got := (kiterOutcome{res, err}); !reflect.DeepEqual(got, want[i]) {
				t.Errorf("%s: pooled run gives %v, fresh workspace %v", c.name, got, want[i])
			}
			res, err = reused(c.ctx(), c.g, c.opt)
			if got := (kiterOutcome{res, err}); !reflect.DeepEqual(got, want[i]) {
				t.Errorf("%s: reused workspace gives %v, fresh workspace %v", c.name, got, want[i])
			}
		}
	}
}

// TestPooledScheduleMatchesFresh runs the same sequence through ScheduleK,
// at each graph's optimal K where K-Iter finds one: every schedule equals
// the fresh workspace's and is feasible over two graph iterations.
func TestPooledScheduleMatchesFresh(t *testing.T) {
	cases := poolCases(t)
	opt := make([]kperiodic.KIterResult, len(cases))
	for i, c := range cases {
		res, err := kperiodic.FreshKIterCtx(context.Background(), c.g, c.opt)
		if err == nil {
			opt[i] = *res
		}
	}
	K := func(i int) []int64 {
		if opt[i].Evaluation != nil {
			return opt[i].K
		}
		ones := make([]int64, cases[i].g.NumTasks())
		for t := range ones {
			ones[t] = 1
		}
		return ones
	}
	rng := rand.New(rand.NewSource(22))
	for _, i := range rng.Perm(len(cases)) {
		c := cases[i]
		want, wantErr := kperiodic.FreshScheduleK(c.g, K(i), c.opt)
		got, err := kperiodic.ScheduleK(c.g, K(i), c.opt)
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(err, wantErr) {
			t.Errorf("%s: pooled schedule differs from a fresh workspace's (err %v, want %v)", c.name, err, wantErr)
			continue
		}
		if err != nil {
			if opt[i].Evaluation != nil {
				t.Errorf("%s: no schedule at K-Iter's optimal K: %v", c.name, err)
			}
			continue
		}
		// Validate checks the sequential semantics, so it does not apply
		// to auto-concurrent schedules.
		if c.opt.AutoConcurrency {
			continue
		}
		if err := got.Validate(c.g, 2); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

// TestPooledResultsDoNotAlias keeps a K-Iter result, a schedule and a
// bi-valued graph, runs 50 other graphs through the pool, and checks the
// kept values against fresh-workspace twins: no returned value may share
// storage a later solve overwrites.
func TestPooledResultsDoNotAlias(t *testing.T) {
	g := gen.KIterChain(4)
	var opt kperiodic.Options
	res, err := kperiodic.KIter(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	sch, err := kperiodic.ScheduleK(g, res.K, opt)
	if err != nil {
		t.Fatal(err)
	}
	arcs, err := kperiodic.BivaluedGraph(g, res.K, opt)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(500); seed < 550; seed++ {
		other, err := gen.RandomSmall(seed)
		if err != nil {
			t.Fatal(err)
		}
		ores, err := kperiodic.KIter(other, opt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := kperiodic.ScheduleK(other, ores.K, opt); err != nil {
			t.Fatal(err)
		}
		if _, err := kperiodic.BivaluedGraph(other, ores.K, opt); err != nil {
			t.Fatal(err)
		}
	}
	wantRes, err := kperiodic.FreshKIterCtx(context.Background(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, wantRes) {
		t.Errorf("K-Iter result changed: %v, want %v", kiterOutcome{res: res}, kiterOutcome{res: wantRes})
	}
	if want, _ := kperiodic.FreshScheduleK(g, res.K, opt); !reflect.DeepEqual(sch, want) {
		t.Error("schedule changed after 50 later solves")
	}
	if want, _ := kperiodic.FreshBivaluedGraph(g, res.K, opt); !reflect.DeepEqual(arcs, want) {
		t.Error("bi-valued graph changed after 50 later solves")
	}
}

// TestPoolConcurrentSolves has four goroutines run different graphs
// through the pool at once; each result must match its fresh twin.
func TestPoolConcurrentSolves(t *testing.T) {
	cases := poolCases(t)
	want := freshKIter(cases)
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for rep := 0; rep < 3; rep++ {
				for _, i := range rng.Perm(len(cases)) {
					if i%workers != w {
						continue
					}
					c := cases[i]
					res, err := kperiodic.KIterCtx(c.ctx(), c.g, c.opt)
					if got := (kiterOutcome{res, err}); !reflect.DeepEqual(got, want[i]) {
						t.Errorf("worker %d, %s: %v, fresh workspace %v", w, c.name, got, want[i])
					}
				}
			}
		}()
	}
	wg.Wait()
}
