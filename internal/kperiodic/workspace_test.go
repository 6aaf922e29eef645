package kperiodic

import (
	"context"
	"testing"
)

// TestReleaseDropsOversizedWorkspaces pins the release contract: a
// released workspace keeps no graph, repetition vector or context, and
// one whose block caches grew past maxPooledArcs never comes back from
// the pool.
func TestReleaseDropsOversizedWorkspaces(t *testing.T) {
	g := figure2White()
	q, err := g.RepetitionVector()
	if err != nil {
		t.Fatal(err)
	}
	w := new(workspace)
	if err := w.b.reset(g, q, []int64{1, 1, 1, 1}, Options{}); err != nil {
		t.Fatal(err)
	}
	w.b.ctx = context.Background()
	w.b.bufBlocks[0].arcs = make([]blockArc, 0, maxPooledArcs+1)
	w.release()
	if w.b.g != nil || w.b.q != nil || w.b.ctx != nil {
		t.Error("a released workspace still holds its graph, repetition vector or context")
	}
	for range 4 {
		if getWorkspace() == w {
			t.Fatal("a workspace past maxPooledArcs came back from the pool")
		}
	}
}
