package kperiodic

import (
	"context"
	"testing"
)

// TestReleaseDropsOversizedWorkspaces pins the release contract: a
// released workspace keeps no graph, repetition vector or context, and
// one whose block caches or policy store grew past maxPooledArcs never
// comes back from the pool.
func TestReleaseDropsOversizedWorkspaces(t *testing.T) {
	g := figure2White()
	f, err := facts(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, grow := range []struct {
		name string
		grow func(b *builder)
	}{
		{"block cache", func(b *builder) { b.bufBlocks[0].arcs = make([]blockArc, 0, maxPooledArcs+1) }},
		{"policy store", func(b *builder) { b.pols = make([]int32, 0, maxPooledArcs+1) }},
	} {
		w := new(workspace)
		if err := w.b.reset(f, []int64{1, 1, 1, 1}, Options{}); err != nil {
			t.Fatal(err)
		}
		w.b.ctx = context.Background()
		grow.grow(&w.b)
		w.release()
		if w.b.g != nil || w.b.q != nil || w.b.ctx != nil {
			t.Errorf("%s: a released workspace still holds its graph, repetition vector or context", grow.name)
		}
		for range 4 {
			if getWorkspace() == w {
				t.Fatalf("%s: a workspace past maxPooledArcs came back from the pool", grow.name)
			}
		}
	}
}
