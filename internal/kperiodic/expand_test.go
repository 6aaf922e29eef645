package kperiodic

import (
	"math/big"
	"testing"

	"kiter/internal/csdf"
	"kiter/internal/rat"
)

// figure1 rebuilds the Figure 1 buffer locally (white-box tests cannot
// import gen without an import cycle through the external test package).
func figure1() *csdf.Graph {
	g := csdf.NewGraph("fig1")
	t := g.AddTask("t", []int64{1, 1, 1})
	tp := g.AddTask("t'", []int64{1, 1})
	g.AddBuffer("b", t, tp, []int64{2, 3, 1}, []int64{2, 5}, 0)
	return g
}

// TestConstraintArcsFigure1 checks the Theorem 2 quantities by hand on the
// Figure 1 buffer at K = 1. With ib = 6, ob = 7, gcd = 1 and q = [7, 6]
// (den = q_t·ib = 42), the useful pairs and their β values are:
//
//	(p,p′)=(1,1): Q=2  β=1   (1,2): Q=7  β=6
//	(2,1):        Q=0  β=−1  (2,2): Q=5  β=4
//	(3,1):        Q=−3 β=−4  (3,2): Q=2  β=1
func TestConstraintArcsFigure1(t *testing.T) {
	g := figure1()
	q, err := g.RepetitionVector()
	if err != nil {
		t.Fatal(err)
	}
	if q[0] != 7 || q[1] != 6 {
		t.Fatalf("q = %v, want [7 6]", q)
	}
	b, err := freshBuilder(g, q, []int64{1, 1}, Options{AutoConcurrency: true} /* no self-loops */)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.build(); err != nil {
		t.Fatal(err)
	}
	if b.mg.NumArcs() != 6 {
		t.Fatalf("arcs = %d, want 6", b.mg.NumArcs())
	}
	// Expected H = −β/42 per (p,p′); node(t,p)=p−1, node(t′,p′)=3+p′−1.
	wantH := map[[2]int]rat.Rat{
		{1, 1}: rat.NewRat(-1, 42),
		{1, 2}: rat.NewRat(-6, 42),
		{2, 1}: rat.NewRat(1, 42),
		{2, 2}: rat.NewRat(-4, 42),
		{3, 1}: rat.NewRat(4, 42),
		{3, 2}: rat.NewRat(-1, 42),
	}
	seen := map[[2]int]bool{}
	for i := 0; i < b.mg.NumArcs(); i++ {
		a := b.mg.Arc(i)
		p := a.From + 1
		pp := a.To - 3 + 1
		key := [2]int{p, pp}
		want, ok := wantH[key]
		if !ok {
			t.Errorf("unexpected arc (%d,%d)", p, pp)
			continue
		}
		if a.H.Cmp(want) != 0 {
			t.Errorf("H(%d,%d) = %s, want %s", p, pp, a.H, want)
		}
		if a.L != 1 {
			t.Errorf("L(%d,%d) = %d, want 1", p, pp, a.L)
		}
		seen[key] = true
	}
	if len(seen) != 6 {
		t.Errorf("saw %d distinct pairs, want 6", len(seen))
	}
}

// TestExpansionDuplication checks that K > 1 duplicates the adjacent
// vectors: at K = [2, 1] the source has 6 expanded phases whose cumulative
// production doubles per window, and every H keeps the lcm-free
// denominator qt·ib.
func TestExpansionDuplication(t *testing.T) {
	g := figure1()
	q := []int64{7, 6}
	b, err := freshBuilder(g, q, []int64{2, 1}, Options{AutoConcurrency: true})
	if err != nil {
		t.Fatal(err)
	}
	if b.nodes != 6+2 {
		t.Fatalf("nodes = %d, want 8", b.nodes)
	}
	if l := lcmK(b.K); l.Cmp(big.NewInt(2)) != 0 {
		t.Fatalf("lcm(K) = %s, want 2", l)
	}
	if err := b.build(); err != nil {
		t.Fatal(err)
	}
	// Every arc's H must have denominator dividing q·ib = 42.
	for i := 0; i < b.mg.NumArcs(); i++ {
		h := b.mg.Arc(i).H
		if h.IsZero() {
			continue
		}
		den := h.Den()
		if new(big.Int).Mod(big.NewInt(42), den).Sign() != 0 {
			t.Errorf("arc %d: denominator %s does not divide 42", i, den)
		}
	}
	// Durations repeat: expanded phase 4 of t is original phase 1.
	if d := b.duration(0, 4); d != 1 {
		t.Errorf("duration(t,4) = %d", d)
	}
}

func TestPhaseRefRoundTrip(t *testing.T) {
	g := figure1()
	q := []int64{7, 6}
	b, err := freshBuilder(g, q, []int64{3, 2}, Options{AutoConcurrency: true})
	if err != nil {
		t.Fatal(err)
	}
	for task := 0; task < g.NumTasks(); task++ {
		n := int(b.K[task]) * g.Task(csdf.TaskID(task)).Phases()
		for p := 1; p <= n; p++ {
			node := b.node(csdf.TaskID(task), p)
			ref := b.phaseRef(node)
			if ref.Task != csdf.TaskID(task) || ref.Phase != p {
				t.Fatalf("round-trip (%d,%d) -> node %d -> %+v", task, p, node, ref)
			}
		}
	}
}

func TestPhaseRefDecompose(t *testing.T) {
	ref := PhaseRef{Task: 0, Phase: 5}
	orig, rep := ref.Decompose(3) // ϕ = 3: phase 5 = phase 2 of repeat 2
	if orig != 2 || rep != 2 {
		t.Errorf("Decompose = (%d,%d), want (2,2)", orig, rep)
	}
	orig, rep = PhaseRef{Phase: 3}.Decompose(3)
	if orig != 3 || rep != 1 {
		t.Errorf("Decompose(3) = (%d,%d), want (3,1)", orig, rep)
	}
}

func TestSequentialArcs(t *testing.T) {
	g := csdf.NewGraph("seq")
	g.AddTask("a", []int64{2, 3})
	q := []int64{1}
	b, err := freshBuilder(g, q, []int64{2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.build(); err != nil {
		t.Fatal(err)
	}
	// 4 expanded phases: 3 chain arcs (H=0) + 1 wrap arc with the
	// lcm-free weight H = K/q.
	if b.mg.NumArcs() != 4 {
		t.Fatalf("arcs = %d, want 4", b.mg.NumArcs())
	}
	var wraps int
	for i := 0; i < b.mg.NumArcs(); i++ {
		a := b.mg.Arc(i)
		if a.H.IsZero() {
			if a.To != a.From+1 {
				t.Errorf("chain arc %d→%d not consecutive", a.From, a.To)
			}
			continue
		}
		wraps++
		if a.From != 3 || a.To != 0 {
			t.Errorf("wrap arc %d→%d, want 3→0", a.From, a.To)
		}
		if a.H.Cmp(rat.NewRat(2, 1)) != 0 { // K/q = 2/1
			t.Errorf("wrap H = %s, want 2", a.H)
		}
		if a.L != 3 { // duration of last expanded phase (orig phase 2)
			t.Errorf("wrap L = %d, want 3", a.L)
		}
	}
	if wraps != 1 {
		t.Errorf("wrap arcs = %d, want 1", wraps)
	}
}

func TestBuilderRejectsBadK(t *testing.T) {
	g := figure1()
	q := []int64{7, 6}
	if _, err := freshBuilder(g, q, []int64{1}, Options{AutoConcurrency: true}); err == nil {
		t.Error("short K accepted")
	}
	if _, err := freshBuilder(g, q, []int64{0, 1}, Options{AutoConcurrency: true}); err == nil {
		t.Error("zero K accepted")
	}
	if _, err := freshBuilder(g, q, []int64{-2, 1}, Options{AutoConcurrency: true}); err == nil {
		t.Error("negative K accepted")
	}
}

func TestOptimalityTestUnit(t *testing.T) {
	q := []int64{6, 12, 6, 1}
	// Circuit over tasks {0,2,3}: gcd = 1, q̄ = [6,·,6,1].
	if optimalityTest([]csdf.TaskID{0, 2, 3}, q, []int64{1, 1, 1, 1}) {
		t.Error("test passed with K=1 but q̄0 = 6")
	}
	if !optimalityTest([]csdf.TaskID{0, 2, 3}, q, []int64{6, 1, 6, 1}) {
		t.Error("test failed with matching K")
	}
	// Circuit over {0,1}: gcd(6,12) = 6, q̄ = [1,2]: K1 must be even.
	if optimalityTest([]csdf.TaskID{0, 1}, q, []int64{1, 1, 1, 1}) {
		t.Error("test passed though q̄1 = 2, K1 = 1")
	}
	if !optimalityTest([]csdf.TaskID{0, 1}, q, []int64{1, 2, 1, 1}) {
		t.Error("test failed with K = [1,2,1,1]")
	}
	// Single-task circuit always passes (q̄ = 1).
	if !optimalityTest([]csdf.TaskID{1}, q, []int64{1, 1, 1, 1}) {
		t.Error("single-task circuit should always pass")
	}
	if optimalityTest(nil, q, []int64{1, 1, 1, 1}) {
		t.Error("empty circuit should fail")
	}
}

func TestUpdateKMatchesPaperExample(t *testing.T) {
	// Section 3.5's narrative with q = [6,12,6,1]: a critical circuit over
	// tasks {A,B} has q̄B = 2; the update turns K = [1,1,1,1] into
	// K = [1,2,1,1].
	q := []int64{6, 12, 6, 1}
	K := []int64{1, 1, 1, 1}
	updateK(K, []csdf.TaskID{0, 1}, q, Options{})
	want := []int64{1, 2, 1, 1}
	for i := range want {
		if K[i] != want[i] {
			t.Fatalf("K = %v, want %v", K, want)
		}
	}
	// A further circuit over {0,2,3} lifts A and C to 6.
	updateK(K, []csdf.TaskID{0, 2, 3}, q, Options{})
	want = []int64{6, 2, 6, 1}
	for i := range want {
		if K[i] != want[i] {
			t.Fatalf("K = %v, want %v", K, want)
		}
	}
}

func TestUpdateKFullUpdate(t *testing.T) {
	q := []int64{6, 12, 6, 1}
	K := []int64{1, 1, 1, 1}
	updateK(K, []csdf.TaskID{0, 1}, q, Options{FullUpdate: true})
	if K[0] != 6 || K[1] != 12 || K[2] != 1 || K[3] != 1 {
		t.Fatalf("K = %v, want [6 12 1 1]", K)
	}
}
