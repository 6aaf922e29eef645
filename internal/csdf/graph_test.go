package csdf

import (
	"math/big"
	"strings"
	"testing"
	"testing/quick"
)

// figure1 builds the single-buffer example of Figure 1: a buffer b between
// tasks t (3 phases) and t′ (2 phases) with inb=[2,3,1], outb=[2,5], M0=0.
func figure1() (*Graph, BufferID) {
	g := NewGraph("fig1")
	t := g.AddTask("t", []int64{1, 1, 1})
	tp := g.AddTask("t'", []int64{1, 1})
	b := g.AddBuffer("b", t, tp, []int64{2, 3, 1}, []int64{2, 5}, 0)
	return g, b
}

// figure2 builds the running example of Figure 2 with the rate vectors as
// printed: five buffers over tasks A(2 phases), B(3), C(1), D(1).
func figure2() *Graph {
	g := NewGraph("fig2")
	a := g.AddTask("A", []int64{1, 1})
	b := g.AddTask("B", []int64{1, 1, 1})
	c := g.AddTask("C", []int64{1})
	d := g.AddTask("D", []int64{1})
	g.AddBuffer("A->B", a, b, []int64{3, 5}, []int64{1, 1, 4}, 0)
	g.AddBuffer("B->C", b, c, []int64{6, 2, 1}, []int64{6}, 0)
	g.AddBuffer("C->A", c, a, []int64{2}, []int64{1, 3}, 4)
	g.AddBuffer("A->D", a, d, []int64{3, 5}, []int64{24}, 13)
	g.AddBuffer("D->C", d, c, []int64{36}, []int64{6}, 6)
	return g
}

func TestFigure1Totals(t *testing.T) {
	g, bid := figure1()
	b := g.Buffer(bid)
	if ib := b.TotalIn(); ib != 6 {
		t.Errorf("ib = %d, want 6", ib)
	}
	if ob := b.TotalOut(); ob != 7 {
		t.Errorf("ob = %d, want 7", ob)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestFigure1CumulativePrecedence(t *testing.T) {
	// The paper's example: ⟨t′2,1⟩ can complete at the completion of
	// ⟨t1,2⟩ since M0 + Ia⟨t1,2⟩ − Oa⟨t′2,1⟩ = 0 + 8 − 7 ≥ 0.
	g, bid := figure1()
	b := g.Buffer(bid)
	if got := CumulativeIn(b, 1, 2); got != 8 {
		t.Errorf("Ia⟨t1,2⟩ = %d, want 8", got)
	}
	if got := CumulativeOut(b, 2, 1); got != 7 {
		t.Errorf("Oa⟨t′2,1⟩ = %d, want 7", got)
	}
	if m := b.Initial + CumulativeIn(b, 1, 2) - CumulativeOut(b, 2, 1); m < 0 {
		t.Errorf("precedence violated: %d < 0", m)
	}
}

func TestFigure2Valid(t *testing.T) {
	g := figure2()
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if g.IsSDF() {
		t.Error("figure 2 graph is cyclo-static, not SDF")
	}
	if g.NumTasks() != 4 || g.NumBuffers() != 5 {
		t.Errorf("size = (%d,%d), want (4,5)", g.NumTasks(), g.NumBuffers())
	}
}

func TestFigure2Repetition(t *testing.T) {
	g := figure2()
	q, err := g.RepetitionVector()
	if err != nil {
		t.Fatalf("RepetitionVector: %v", err)
	}
	// The printed rate vectors of Figure 2 are mutually consistent with
	// q = [3,4,6,1], not the caption's q = [6,12,6,1]; see README's
	// "Generated stand-ins and ablations".
	want := []int64{3, 4, 6, 1}
	for i := range want {
		if q[i] != want[i] {
			t.Fatalf("q = %v, want %v", q, want)
		}
	}
	if !g.Consistent() {
		t.Error("Consistent() = false")
	}
}

func TestRepetitionBalances(t *testing.T) {
	g := figure2()
	q, err := g.RepetitionVector()
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range g.Buffers() {
		if q[b.Src]*b.TotalIn() != q[b.Dst]*b.TotalOut() {
			t.Errorf("buffer %s: q·ib=%d ≠ q·ob=%d", b.Name,
				q[b.Src]*b.TotalIn(), q[b.Dst]*b.TotalOut())
		}
	}
}

func TestRepetitionSDFChain(t *testing.T) {
	g := NewGraph("chain")
	a := g.AddSDFTask("a", 1)
	b := g.AddSDFTask("b", 1)
	c := g.AddSDFTask("c", 1)
	g.AddSDFBuffer("ab", a, b, 2, 3, 0)
	g.AddSDFBuffer("bc", b, c, 5, 10, 0)
	q, err := g.RepetitionVector()
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{3, 2, 1}
	for i := range want {
		if q[i] != want[i] {
			t.Fatalf("q = %v, want %v", q, want)
		}
	}
}

func TestRepetitionDisconnected(t *testing.T) {
	g := NewGraph("two-components")
	a := g.AddSDFTask("a", 1)
	b := g.AddSDFTask("b", 1)
	c := g.AddSDFTask("c", 1)
	d := g.AddSDFTask("d", 1)
	g.AddSDFBuffer("ab", a, b, 1, 2, 0)
	g.AddSDFBuffer("cd", c, d, 7, 3, 0)
	q, err := g.RepetitionVector()
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{2, 1, 3, 7}
	for i := range want {
		if q[i] != want[i] {
			t.Fatalf("q = %v, want %v", q, want)
		}
	}
}

func TestRepetitionInconsistent(t *testing.T) {
	g := NewGraph("bad")
	a := g.AddSDFTask("a", 1)
	b := g.AddSDFTask("b", 1)
	g.AddSDFBuffer("ab1", a, b, 1, 1, 0)
	g.AddSDFBuffer("ab2", a, b, 2, 1, 0)
	if _, err := g.RepetitionVector(); err == nil {
		t.Fatal("expected inconsistency error")
	}
	if g.Consistent() {
		t.Error("Consistent() = true for inconsistent graph")
	}
}

func TestRepetitionSelfLoop(t *testing.T) {
	g := NewGraph("self")
	a := g.AddTask("a", []int64{1, 2})
	g.AddBuffer("aa", a, a, []int64{1, 0}, []int64{0, 1}, 1)
	q, err := g.RepetitionVector()
	if err != nil {
		t.Fatal(err)
	}
	if q[0] != 1 {
		t.Errorf("q = %v, want [1]", q)
	}

	bad := NewGraph("self-bad")
	b := bad.AddTask("b", []int64{1, 2})
	bad.AddBuffer("bb", b, b, []int64{1, 1}, []int64{0, 1}, 1)
	if _, err := bad.RepetitionVector(); err == nil {
		t.Error("imbalanced self-loop should be inconsistent")
	}
}

func TestRepetitionLargeNoOverflow(t *testing.T) {
	// A multiplier chain whose repetition vector grows geometrically; the
	// exact big.Int computation must not overflow silently.
	g := NewGraph("geo")
	prev := g.AddSDFTask("t0", 1)
	for i := 1; i <= 40; i++ {
		cur := g.AddSDFTask("t", 1)
		g.AddSDFBuffer("e", prev, cur, 2, 3, 0)
		prev = cur
	}
	qb, err := g.RepetitionVectorBig()
	if err != nil {
		t.Fatal(err)
	}
	if qb[0].BitLen() < 40 {
		t.Errorf("q0 suspiciously small: %s", qb[0])
	}
	if _, err := g.RepetitionVector(); err != ErrRepetitionOverflow {
		t.Errorf("int64 conversion error = %v, want ErrRepetitionOverflow", err)
	}
}

// TestRepetitionOverflowKeepsBigForm: a two-step ×2⁴⁰ chain has
// q = [1, 2⁴⁰, 2⁸⁰]. The int64 form must still report
// ErrRepetitionOverflow and the big form must carry the exact values.
func TestRepetitionOverflowKeepsBigForm(t *testing.T) {
	g := NewGraph("overflow")
	a := g.AddSDFTask("a", 1)
	b := g.AddSDFTask("b", 1)
	c := g.AddSDFTask("c", 1)
	g.AddSDFBuffer("ab", a, b, 1<<40, 1, 0)
	g.AddSDFBuffer("bc", b, c, 1<<40, 1, 0)
	if _, err := g.RepetitionVector(); err != ErrRepetitionOverflow {
		t.Fatalf("RepetitionVector err = %v, want ErrRepetitionOverflow", err)
	}
	qb, err := g.RepetitionVectorBig()
	if err != nil {
		t.Fatal(err)
	}
	for i, shift := range []uint{0, 40, 80} {
		if want := new(big.Int).Lsh(big.NewInt(1), shift); qb[i].Cmp(want) != 0 {
			t.Errorf("q[%d] = %s, want 2^%d", i, qb[i], shift)
		}
	}
	if !g.Consistent() {
		t.Error("an overflowing but consistent graph reports inconsistent")
	}
}

// TestRepetitionIntermediateOverflow: q = [3, 2⁶², 6] fits in int64, but
// the rate products along the way do not — 2⁶²·6 tokens cross buffer bc
// per iteration, and the unreduced product of a→b's and b→c's rate
// ratios is 2⁶²·6 / (3·2⁶²). Both forms must return the exact vector.
func TestRepetitionIntermediateOverflow(t *testing.T) {
	g := NewGraph("intermediate")
	a := g.AddSDFTask("a", 1)
	b := g.AddSDFTask("b", 1)
	c := g.AddSDFTask("c", 1)
	g.AddSDFBuffer("ab", a, b, 1<<62, 3, 0)
	g.AddSDFBuffer("bc", b, c, 6, 1<<62, 0)
	g.AddSDFBuffer("ca", c, a, 1, 2, 0)
	want := []int64{3, 1 << 62, 6}
	q, err := g.RepetitionVector()
	if err != nil {
		t.Fatal(err)
	}
	qb, err := g.RepetitionVectorBig()
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if q[i] != want[i] || !qb[i].IsInt64() || qb[i].Int64() != want[i] {
			t.Fatalf("q = %v, big %v, want %v", q, qb, want)
		}
	}
}

func TestSumRepetition(t *testing.T) {
	g := figure2()
	s, err := g.SumRepetition()
	if err != nil {
		t.Fatal(err)
	}
	if s.Int64() != 14 { // 3+4+6+1
		t.Errorf("Σq = %s, want 14", s)
	}
}

func TestValidateErrors(t *testing.T) {
	empty := NewGraph("empty")
	if err := empty.Validate(); err != ErrEmptyGraph {
		t.Errorf("empty graph: %v", err)
	}

	g := NewGraph("g")
	a := g.AddTask("a", nil)
	if err := g.Validate(); err == nil {
		t.Error("task with no phases accepted")
	}

	g = NewGraph("g")
	a = g.AddTask("a", []int64{-1})
	if err := g.Validate(); err == nil {
		t.Error("negative duration accepted")
	}

	g = NewGraph("g")
	a = g.AddSDFTask("a", 1)
	b := g.AddSDFTask("b", 1)
	g.AddBuffer("ab", a, b, []int64{1, 2}, []int64{1}, 0)
	if err := g.Validate(); err == nil {
		t.Error("mismatched production vector accepted")
	}

	g = NewGraph("g")
	a = g.AddSDFTask("a", 1)
	b = g.AddSDFTask("b", 1)
	g.AddSDFBuffer("ab", a, b, 1, 1, -1)
	if err := g.Validate(); err == nil {
		t.Error("negative marking accepted")
	}

	g = NewGraph("g")
	a = g.AddSDFTask("a", 1)
	b = g.AddSDFTask("b", 1)
	g.AddBuffer("ab", a, b, []int64{0}, []int64{1}, 0)
	if err := g.Validate(); err == nil {
		t.Error("zero total production accepted")
	}

	g = NewGraph("g")
	a = g.AddSDFTask("a", 1)
	b = g.AddSDFTask("b", 1)
	bid := g.AddSDFBuffer("ab", a, b, 1, 1, 5)
	g.SetCapacity(bid, 3)
	if err := g.Validate(); err == nil {
		t.Error("marking above capacity accepted")
	}

	g = NewGraph("g")
	a = g.AddSDFTask("a", 1)
	g.AddBuffer("ax", a, TaskID(7), []int64{1}, []int64{1}, 0)
	if err := g.Validate(); err == nil {
		t.Error("dangling destination accepted")
	}
}

func TestValidationErrorMessage(t *testing.T) {
	e := &ValidationError{Kind: "buffer", ID: 3, Msg: "boom"}
	if !strings.Contains(e.Error(), "buffer 3") {
		t.Errorf("unhelpful message %q", e.Error())
	}
}

func TestClone(t *testing.T) {
	g := figure2()
	c := g.Clone()
	if c.NumTasks() != g.NumTasks() || c.NumBuffers() != g.NumBuffers() {
		t.Fatal("clone size mismatch")
	}
	// Mutating the clone must not affect the original.
	c.Task(0).Durations[0] = 99
	if g.Task(0).Durations[0] == 99 {
		t.Error("clone aliases task durations")
	}
	c.Buffer(0).In[0] = 99
	if g.Buffer(0).In[0] == 99 {
		t.Error("clone aliases buffer rates")
	}
}

func TestTaskByName(t *testing.T) {
	g := figure2()
	id, ok := g.TaskByName("C")
	if !ok || g.Task(id).Name != "C" {
		t.Errorf("TaskByName(C) = %v,%v", id, ok)
	}
	if _, ok := g.TaskByName("nope"); ok {
		t.Error("found non-existent task")
	}
}

func TestWithCapacities(t *testing.T) {
	g := NewGraph("cap")
	a := g.AddSDFTask("a", 1)
	b := g.AddSDFTask("b", 1)
	bid := g.AddSDFBuffer("ab", a, b, 2, 3, 1)
	g.SetCapacity(bid, 7)
	out, err := g.WithCapacities()
	if err != nil {
		t.Fatal(err)
	}
	if out.NumBuffers() != 2 {
		t.Fatalf("buffers = %d, want 2", out.NumBuffers())
	}
	rev := out.Buffer(1)
	if rev.Src != b || rev.Dst != a {
		t.Error("reverse buffer endpoints wrong")
	}
	if rev.In[0] != 3 || rev.Out[0] != 2 {
		t.Errorf("reverse rates = %v/%v, want [3]/[2]", rev.In, rev.Out)
	}
	if rev.Initial != 6 { // 7 - 1
		t.Errorf("reverse marking = %d, want 6", rev.Initial)
	}
	if out.Buffer(0).Capacity != 0 || rev.Capacity != 0 {
		t.Error("capacities not cleared on result")
	}
	if err := out.Validate(); err != nil {
		t.Errorf("transformed graph invalid: %v", err)
	}
	// Invariant: forward + reverse markings sum to the capacity.
	if out.Buffer(0).Initial+rev.Initial != 7 {
		t.Error("marking sum ≠ capacity")
	}
}

func TestScaleDurations(t *testing.T) {
	g := figure2()
	s := g.ScaleDurations(113)
	for i, task := range g.Tasks() {
		for p, d := range task.Durations {
			if got := s.Task(TaskID(i)).Durations[p]; got != 113*d {
				t.Errorf("task %d phase %d: duration %d, want %d", i, p+1, got, 113*d)
			}
		}
	}
	if g.Task(0).Durations[0] == s.Task(0).Durations[0] {
		t.Error("ScaleDurations modified or aliased the original graph")
	}
}

func TestWithCapacitiesNone(t *testing.T) {
	g := figure2()
	if _, err := g.WithCapacities(); err != ErrNoCapacities {
		t.Errorf("err = %v, want ErrNoCapacities", err)
	}
}

func TestWithCapacitiesPreservesConsistency(t *testing.T) {
	g := figure2()
	for i := 0; i < g.NumBuffers(); i++ {
		b := g.Buffer(BufferID(i))
		g.SetCapacity(BufferID(i), b.Initial+2*(b.TotalIn()+b.TotalOut()))
	}
	out, err := g.WithCapacities()
	if err != nil {
		t.Fatal(err)
	}
	q1, err := g.Unbounded().RepetitionVector()
	if err != nil {
		t.Fatal(err)
	}
	q2, err := out.RepetitionVector()
	if err != nil {
		t.Fatal(err)
	}
	for i := range q1 {
		if q1[i] != q2[i] {
			t.Fatalf("capacity transform changed q: %v vs %v", q1, q2)
		}
	}
}

func TestScaleCapacitiesAndUnbounded(t *testing.T) {
	g := figure2()
	s := g.ScaleCapacities(2)
	for _, b := range s.Buffers() {
		want := 2*(b.TotalIn()+b.TotalOut()) + b.Initial
		if b.Capacity != want {
			t.Errorf("capacity = %d, want %d", b.Capacity, want)
		}
	}
	u := s.Unbounded()
	for _, b := range u.Buffers() {
		if b.Capacity != 0 {
			t.Error("Unbounded left a capacity")
		}
	}
}

func TestNormalizePhases(t *testing.T) {
	g := NewGraph("norm")
	a := g.AddTask("a", []int64{2, 2, 2, 2}) // 2-periodic pattern [2,2]→ reduces to [2]
	b := g.AddSDFTask("b", 1)
	g.AddBuffer("ab", a, b, []int64{1, 1, 1, 1}, []int64{2}, 0)
	n := g.NormalizePhases()
	if got := n.Task(a).Phases(); got != 1 {
		t.Errorf("normalized phases = %d, want 1", got)
	}
	if len(n.Buffer(0).In) != 1 || n.Buffer(0).In[0] != 1 {
		t.Errorf("normalized In = %v, want [1]", n.Buffer(0).In)
	}
	// Consistency must be preserved (q scales accordingly).
	if !n.Consistent() {
		t.Error("normalized graph inconsistent")
	}
}

func TestNormalizePhasesConservative(t *testing.T) {
	g := NewGraph("norm2")
	a := g.AddTask("a", []int64{1, 1}) // durations periodic…
	b := g.AddSDFTask("b", 1)
	g.AddBuffer("ab", a, b, []int64{1, 2}, []int64{3}, 0) // …but rates are not
	n := g.NormalizePhases()
	if got := n.Task(a).Phases(); got != 2 {
		t.Errorf("phases = %d, want 2 (no reduction)", got)
	}
}

func TestComputeStats(t *testing.T) {
	g := figure2()
	s := g.ComputeStats()
	if s.Tasks != 4 || s.Buffers != 5 || s.TotalPhases != 7 || s.MaxPhases != 3 {
		t.Errorf("stats = %+v", s)
	}
	if s.SumQ != "14" {
		t.Errorf("SumQ = %s, want 14", s.SumQ)
	}
	if s.IsSDF {
		t.Error("IsSDF true for CSDF graph")
	}
	if !strings.Contains(s.String(), "CSDFG") {
		t.Errorf("String() = %q", s.String())
	}
}

func TestWriteDOT(t *testing.T) {
	g := figure2()
	var sb strings.Builder
	if err := g.WriteDOT(&sb); err != nil {
		t.Fatal(err)
	}
	dot := sb.String()
	for _, frag := range []string{"digraph", "A", "[3,5]", "M0=13", "->"} {
		if !strings.Contains(dot, frag) {
			t.Errorf("DOT output missing %q:\n%s", frag, dot)
		}
	}
}

func TestCumulativeProperties(t *testing.T) {
	g, bid := figure1()
	b := g.Buffer(bid)
	f := func(p8 uint8, n8 uint8) bool {
		p := int(p8)%len(b.In) + 1
		n := int64(n8)%50 + 1
		// Ia is non-decreasing in n by exactly ib per iteration.
		return CumulativeIn(b, p, n+1)-CumulativeIn(b, p, n) == b.TotalIn()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	fo := func(p8 uint8, n8 uint8) bool {
		p := int(p8)%len(b.Out) + 1
		n := int64(n8)%50 + 1
		return CumulativeOut(b, p, n+1)-CumulativeOut(b, p, n) == b.TotalOut()
	}
	if err := quick.Check(fo, nil); err != nil {
		t.Error(err)
	}
}

func TestRepetitionScalingInvariance(t *testing.T) {
	// Scaling all rates of a buffer by a common factor must not change q.
	f := func(k8 uint8) bool {
		k := int64(k8)%5 + 1
		g := NewGraph("scale")
		a := g.AddSDFTask("a", 1)
		b := g.AddSDFTask("b", 1)
		g.AddSDFBuffer("ab", a, b, 2*k, 3*k, 0)
		q, err := g.RepetitionVector()
		if err != nil {
			return false
		}
		return q[0] == 3 && q[1] == 2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
