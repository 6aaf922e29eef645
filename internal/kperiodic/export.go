package kperiodic

import (
	"fmt"
	"io"
	"strings"

	"kiter/internal/csdf"
	"kiter/internal/rat"
)

// BivaluedArc is one arc of the bi-valued graph G = (N, E) of Section 3.3,
// in task/phase coordinates (Figure 5).
type BivaluedArc struct {
	From, To PhaseRef
	L        int64
	H        rat.Rat
}

// BivaluedGraph constructs and returns the arcs of the bi-valued graph for
// g under the periodicity vector K, exactly as used by EvaluateK.
func BivaluedGraph(g *csdf.Graph, K []int64, opt Options) ([]BivaluedArc, error) {
	f, err := csdf.NewFacts(g)
	if err != nil {
		return nil, err
	}
	w := getWorkspace()
	arcs, err := w.bivaluedGraph(f, K, opt)
	w.release()
	return arcs, err
}

// bivaluedGraph is BivaluedGraph in w, on the graph f describes.
func (w *workspace) bivaluedGraph(f *csdf.Facts, K []int64, opt Options) ([]BivaluedArc, error) {
	b := &w.b
	if err := b.reset(f, K, opt); err != nil {
		return nil, err
	}
	if err := b.build(); err != nil {
		return nil, err
	}
	arcs := make([]BivaluedArc, 0, b.mg.NumArcs())
	for i := 0; i < b.mg.NumArcs(); i++ {
		a := b.mg.Arc(i)
		arcs = append(arcs, BivaluedArc{
			From: b.phaseRef(a.From),
			To:   b.phaseRef(a.To),
			L:    a.L,
			H:    a.H,
		})
	}
	return arcs, nil
}

// WriteBivaluedDOT renders the bi-valued graph in Graphviz DOT format with
// the (L, H) labels of Figure 5.
func WriteBivaluedDOT(w io.Writer, g *csdf.Graph, K []int64, opt Options) error {
	arcs, err := BivaluedGraph(g, K, opt)
	if err != nil {
		return err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %q {\n  rankdir=LR;\n  node [shape=circle];\n", g.Name+"-bivalued")
	nodeID := func(r PhaseRef) string {
		return fmt.Sprintf("%s_%d", g.Task(r.Task).Name, r.Phase)
	}
	seen := map[string]bool{}
	for _, a := range arcs {
		for _, r := range []PhaseRef{a.From, a.To} {
			id := nodeID(r)
			if !seen[id] {
				seen[id] = true
				fmt.Fprintf(&sb, "  %q [label=%q];\n", id, id)
			}
		}
	}
	for _, a := range arcs {
		fmt.Fprintf(&sb, "  %q -> %q [label=\"(%d, %s)\"];\n", nodeID(a.From), nodeID(a.To), a.L, a.H)
	}
	sb.WriteString("}\n")
	_, err = io.WriteString(w, sb.String())
	return err
}
