package csdf_test

import (
	"slices"
	"testing"

	"kiter/internal/csdf"
	"kiter/internal/gen"
)

// checkSCCs verifies s against g: every task sits in exactly one listed
// component, Comp agrees with the lists, two tasks share a component
// exactly when each reaches the other, and every buffer between two
// components runs from the higher-numbered one to the lower.
func checkSCCs(t *testing.T, g *csdf.Graph, s *csdf.SCCs) {
	t.Helper()
	n := g.NumTasks()
	if len(s.Tasks) != n || len(s.Comp) != n {
		t.Fatalf("%s: %d listed tasks, %d labels for %d tasks", g.Name, len(s.Tasks), len(s.Comp), n)
	}
	seen := make([]bool, n)
	for c := range s.Len() {
		for _, task := range s.Component(c) {
			if seen[task] || int(s.Comp[task]) != c {
				t.Fatalf("%s: task %d listed twice or labelled %d in component %d", g.Name, task, s.Comp[task], c)
			}
			seen[task] = true
		}
	}
	reach := make([][]bool, n)
	for u := range reach {
		reach[u] = make([]bool, n)
		reach[u][u] = true
		stack := []csdf.TaskID{csdf.TaskID(u)}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, b := range g.Buffers() {
				if b.Src == v && !reach[u][b.Dst] {
					reach[u][b.Dst] = true
					stack = append(stack, b.Dst)
				}
			}
		}
	}
	for u := range n {
		for v := range n {
			if same := s.Comp[u] == s.Comp[v]; same != (reach[u][v] && reach[v][u]) {
				t.Fatalf("%s: tasks %d and %d share a component: %v, mutually reachable: %v",
					g.Name, u, v, same, !same)
			}
		}
	}
	for _, b := range g.Buffers() {
		if s.Comp[b.Src] < s.Comp[b.Dst] {
			t.Fatalf("%s: buffer %s runs from component %d up to %d", g.Name, b.Name, s.Comp[b.Src], s.Comp[b.Dst])
		}
	}
}

func sizes(s *csdf.SCCs) []int {
	out := make([]int, s.Len())
	for c := range out {
		out[c] = len(s.Component(c))
	}
	return out
}

// TestTaskSCCs checks the component structure of the fixtures the
// per-component K-Iter solver and symbolic execution's decomposition
// rely on, with one SCCs value reused across all of them.
func TestTaskSCCs(t *testing.T) {
	selfLoop := csdf.NewGraph("self-loop")
	a := selfLoop.AddSDFTask("a", 1)
	b := selfLoop.AddSDFTask("b", 1)
	selfLoop.AddSDFBuffer("aa", a, a, 1, 1, 1)
	selfLoop.AddSDFBuffer("ab", a, b, 1, 1, 0)
	selfLoop.AddSDFBuffer("bb", b, b, 1, 1, 1)

	pipe := csdf.NewGraph("pipe")
	x := pipe.AddSDFTask("x", 1)
	y := pipe.AddSDFTask("y", 1)
	z := pipe.AddSDFTask("z", 1)
	pipe.AddSDFBuffer("xy", x, y, 1, 1, 0)
	pipe.SetCapacity(pipe.AddSDFBuffer("yz", y, z, 1, 1, 0), 2)
	bounded, err := pipe.WithCapacities()
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		g    *csdf.Graph
		want []int
	}{
		{gen.KIterChain(1), []int{4}},
		{gen.KIterChain(4), []int{4, 4, 4, 4}},
		{gen.KIterChain(16), []int{4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4}},
		{gen.Figure2(), []int{4}},
		{gen.H263Decoder(), []int{4}},
		{gen.LgTransient(1, 0).Graphs[0], []int{gen.LgTransient(1, 0).Graphs[0].NumTasks()}},
		{gen.SampleRateConverter(), []int{1, 1, 1, 1, 1, 1}},
		{selfLoop, []int{1, 1}},
		{pipe, []int{1, 1, 1}},
		// The reverse buffer of yz's capacity merges y and z.
		{bounded, []int{2, 1}},
	}
	var s *csdf.SCCs
	for _, c := range cases {
		s = c.g.TaskSCCs(s)
		checkSCCs(t, c.g, s)
		if got := sizes(s); !slices.Equal(got, c.want) {
			t.Errorf("%s: component sizes %v, want %v", c.g.Name, got, c.want)
		}
	}
}

// TestTaskSCCsRandom checks the partition of random graphs without a ring
// backbone, whose feedback buffers form several components, against
// mutual reachability.
func TestTaskSCCsRandom(t *testing.T) {
	var s *csdf.SCCs
	multi := 0
	for seed := int64(1); seed <= 30; seed++ {
		g, err := gen.Random(gen.Profile{
			Name: "random", Seed: seed, Tasks: 3 + int(seed%9), Buffers: 4 + int(seed%10),
			MaxPhases: 2, BackEdgeFrac: 0.3, Ring: false,
		})
		if err != nil {
			continue
		}
		s = g.TaskSCCs(s)
		checkSCCs(t, g, s)
		if s.Len() > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Error("no random graph had more than one component")
	}
}
