package kperiodic

import (
	"context"
	"testing"

	"kiter/internal/csdf"
	"kiter/internal/mcr"
	"kiter/internal/rat"
)

// TestCertifyChecksEveryComponent pins the exact certification across
// components: when a component's float answer is below its true maximum —
// as a Howard run cut short by rounding may leave it — and another
// component therefore looks critical, certification must still find the
// first component's better circuit. The graph is two HSDF rings, A with
// Ω = 6 and B with Ω = 11, joined by a loose link; B's answer is replaced
// by the circuit of b1's sequential self-loop, of ratio 1.
func TestCertifyChecksEveryComponent(t *testing.T) {
	g := csdf.NewGraph("two-rings")
	a1 := g.AddSDFTask("a1", 3)
	a2 := g.AddSDFTask("a2", 3)
	b1 := g.AddSDFTask("b1", 1)
	b2 := g.AddSDFTask("b2", 10)
	g.AddSDFBuffer("a1a2", a1, a2, 1, 1, 0)
	g.AddSDFBuffer("a2a1", a2, a1, 1, 1, 1)
	g.AddSDFBuffer("b1b2", b1, b2, 1, 1, 0)
	g.AddSDFBuffer("b2b1", b2, b1, 1, 1, 1)
	g.AddSDFBuffer("a2b1", a2, b1, 1, 1, 10)
	b, err := freshBuilder(g, []int64{1, 1, 1, 1}, ones(4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, s := context.Background(), new(mcr.Solver)
	ev, err := resolve(ctx, b, s, Options{SkipCertify: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(b.comps) != 2 || ev.res.Ratio.Cmp(rat.FromInt(11)) != 0 {
		t.Fatalf("%d components, Ω = %s; want 2 and 11", len(b.comps), ev.res.Ratio)
	}
	cb := &b.comps[b.compOf[b1]]
	// cb's blocks: b1b2, b2b1, then the sequential chains of b1 and b2.
	b.emitComponent(cb)
	loop := b.base[cb.first+2]
	cb.res = mcr.Result{Ratio: rat.FromInt(1), CycleArcs: []int{loop}, CycleNodes: []int{b.mg.Arc(loop).From}}

	ev, err = resolve(ctx, b, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tasks := uniqueTasks(ev.critical()); ev.res.Ratio.Cmp(rat.FromInt(11)) != 0 || !ev.res.Certified ||
		len(tasks) != 2 || tasks[0] != b1 || tasks[1] != b2 {
		t.Errorf("certified Ω = %s over tasks %v (certified %v); want 11 over [%d %d]",
			ev.res.Ratio, tasks, ev.res.Certified, b1, b2)
	}
}
