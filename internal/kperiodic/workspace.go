package kperiodic

import (
	"sync"

	"kiter/internal/mcr"
)

// workspace is the scratch of one bi-valued-graph solve: the expansion
// builder with its block caches and MCRP graph, and the Howard solver with
// its per-node arrays. Every entry point that builds a bi-valued graph
// takes one from the pool and releases it after its last read of the
// builder, so a new evaluation starts from arrays an earlier one grew
// instead of from an empty heap. Results never alias a workspace: every
// value an entry point returns is copied out of it first.
type workspace struct {
	b builder
	s mcr.Solver
}

// maxPooledArcs bounds the scratch a pooled workspace may keep: its block
// caches' summed arc capacity, its block and component count, its policy
// store and its latest node count. The MCRP arena and the solver's arrays
// are sized from the same builds, and grow at most 2× past what a build
// needs, so they stay within twice the bound too. The largest expansion
// of a typical analysis has under a thousand arcs; a workspace that grew
// past the bound is dropped instead of pinning its memory in the pool.
const maxPooledArcs = 1 << 16

var workspaces = sync.Pool{New: func() any { return new(workspace) }}

func getWorkspace() *workspace { return workspaces.Get().(*workspace) }

// release returns w to the pool unless it grew past maxPooledArcs. It
// first drops the graph, repetition vector, components and context of the
// solve, so a pooled workspace keeps no request reachable. Callers release
// on normal and error returns but never defer it: a solve that panics
// drops its workspace, whose state is then unknown.
func (w *workspace) release() {
	b := &w.b
	b.g, b.q, b.sccs, b.ctx, b.traceSolve = nil, nil, nil, nil, nil
	if b.nodes > maxPooledArcs || cap(b.bufBlocks)+cap(b.seqBlocks)+cap(b.comps) > maxPooledArcs ||
		cap(b.pols) > maxPooledArcs || b.arcCapacity() > maxPooledArcs {
		return
	}
	workspaces.Put(w)
}

// arcCapacity sums the capacity of every block cache the builder holds,
// including the ones past the current graph's buffer and task counts.
func (b *builder) arcCapacity() int {
	n := 0
	for _, blk := range b.bufBlocks[:cap(b.bufBlocks)] {
		n += cap(blk.arcs)
	}
	for _, blk := range b.seqBlocks[:cap(b.seqBlocks)] {
		n += cap(blk.arcs)
	}
	return n
}
