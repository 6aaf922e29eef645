package kperiodic

import (
	"context"
	"fmt"
	"math/big"
	"slices"

	"kiter/internal/csdf"
	"kiter/internal/mcr"
	"kiter/internal/rat"
)

// builder assembles the bi-valued graph of the expanded CSDFG G̃ obtained
// by duplicating every task's adjacent vectors Kt times (Section 3.2).
//
// Nodes are the first executions ⟨tp, 1⟩ of the expanded phases
// p ∈ {1, …, Kt·ϕ(t)}. For every buffer b = (t, t′) and every useful pair
// (p, p′) — those with α(p,p′) ≤ β(p,p′) (Theorem 2) — an arc carries
//
//	L = d̃(tp)        (the expanded phase duration)
//	H = −β(p,p′)/(qt·ib) (an exact rational)
//
// The H weights are stored in the lcm-free normalization: the paper's
// weight is −β/(q̃t·ĩb) with q̃t·ĩb = qt·ib·lcm(K), and Theorem 3 then
// divides the resulting period by lcm(K) again. Scaling every H of the
// graph by the constant lcm(K) > 0 leaves critical circuits, deadlock
// certificates and Bellman–Ford potentials untouched while making the
// maximum cost-to-time ratio directly equal to the normalized period Ω_G.
// Crucially it also makes every buffer's arc set depend only on the K of
// its two endpoint tasks, which is what lets the builder cache per-buffer
// arc blocks across K-Iter rounds and rebuild only the blocks whose
// endpoint periodicity changed. It also makes the cycle ratios of
// different task-level strongly connected components directly
// comparable, so each component is solved in its own MCRP graph
// (component), and a round re-solves only the components whose tasks'
// K changed. The whole graph is assembled only where a caller needs all
// of it (build): schedule potentials and the exported arcs.
//
// A round re-enumerates only the blocks whose endpoint K changed, and
// lays out and solves again only the components of those tasks. What it
// does over the whole graph is cheap by comparison: setK re-checks the
// size budget, one product per task and per buffer, and refresh compares
// every block's endpoint K. Whole-graph node offsets are laid out only
// when a caller asks for whole-graph nodes, and lcm(K) only when an answer
// is reported.
type builder struct {
	g     *csdf.Graph
	q     []int64
	K     []int64
	nodes int // nodes of the whole bi-valued graph
	arcs  int // arcs of the whole bi-valued graph (all blocks)
	// offset[t] is the node of ⟨t1,1⟩ in the whole graph, laid out on
	// demand (offsets) once placed is false.
	offset []int
	placed bool
	// mg is the MCRP graph the builder last assembled: one component's
	// (emitComponent, which records it in emitted) or the whole
	// bi-valued graph (build).
	mg      *mcr.Graph
	emitted *component
	seq     bool            // add implicit sequential self-loops
	ctx     context.Context // polled during pair enumeration; nil = never cancelled
	opt     Options         // size budgets, re-checked on every setK

	bufBlocks []arcBlock // per-buffer cached constraint arcs
	seqBlocks []arcBlock // per-task cached sequential arcs (seq only)
	replayed  []bool     // per block (buffers, then tasks): replayed by the latest refresh
	cumI      []int64    // pair-enumeration scratch
	cumO      []int64
	stats     buildStats

	// The task-level strongly connected components, fixed from reset on:
	// comps in the order of their lowest task, compOf[t] the component
	// of task t, local[t] the node of ⟨t1,1⟩ in its component's graph.
	// compTasks and compBlocks back every component's task and block
	// lists; base and prevBase, indexed like compBlocks, hold the index
	// of every block's first arc in the latest and in the previous
	// emission of its component, for warmPolicy; pols backs the
	// components' policies.
	sccs           *csdf.SCCs
	comps          []component
	compOf         []int32
	local          []int
	compTasks      []csdf.TaskID
	compBlocks     []int32
	base, prevBase []int
	pols           []int32
	warm           []int32 // warmPolicy result
	at             []int   // partition scratch

	// traceSolve, when set, is called with the node count of every
	// component MCRP solve. Tests use it to see which components a round
	// re-solves.
	traceSolve func(nodes int)
}

// component is one strongly connected component of the task graph and
// its latest answer. Every arc of the bi-valued graph is a buffer's or a
// task's sequential constraint, so every circuit lies inside one
// component, and the maximum cycle ratio of the whole graph is the
// maximum over the components. A component's MCRP graph holds the blocks
// of its internal buffers and of its tasks' sequential chains, in
// component-local nodes; those blocks depend only on its own tasks' K, so
// its graph, answer and Howard policy stay valid until one of those K
// changes. Buffers between components carry no circuit and join no
// component graph. The components take turns in the builder's one MCRP
// graph: emitting the same blocks again reproduces the same arcs, so the
// arc and node indices of a component's answer stay valid.
type component struct {
	tasks  []csdf.TaskID // ascending
	blocks []int32       // internal buffer blocks, then sequential blocks
	first  int           // index of blocks[0] in builder.compBlocks
	nodes  int

	stale  bool       // a task's K changed since the latest solve, or none ran
	cyclic bool       // the latest solve found a circuit, whose answer is res
	res    mcr.Result // in the component graph's arc and node indices
	low    PhaseRef   // the lowest (task, phase) on res's circuit, when cyclic
	pol    []int32    // the latest solve's final Howard policy; aliases builder.pols
}

// buildStats counts the incremental work of the latest refresh.
type buildStats struct {
	arcsBuilt   int // arcs recomputed by pair enumeration this round
	arcsReused  int // arcs replayed from a previous round's block cache
	pairsTested int // phase pairs the rebuilt buffer blocks tested for usefulness
}

// arcBlock caches the constraint arcs of one buffer (or of one task's
// sequential chain) in block-local coordinates, i.e. as offsets into the
// endpoint tasks' node regions. A block built for the same endpoint K
// values is position-independent: when other tasks' K change, only the
// region offsets move, so the block is replayed by re-basing its arcs.
type arcBlock struct {
	kSrc, kDst int64 // endpoint K values the cache holds arcs for; 0 = empty
	arcs       []blockArc
}

// blockArc is one cached arc: from/to are 0-based expanded-phase offsets
// within the source/destination task regions, h the lcm-free H weight and
// hf its float64 rendering for the MCRP fast path.
type blockArc struct {
	from, to int32
	l        int64
	h        rat.Rat
	hf       float64
}

// reset points the builder at a new graph, described by f, and K while
// keeping every backing array it grew for earlier graphs: the block
// caches' arc slices, the MCRP graph's arena and CSR arrays, and the
// pair-enumeration scratch. f's graph must have a repetition vector.
// Nothing from an earlier graph is reused as data. Every block is marked
// empty, so refresh re-enumerates it instead of replaying another graph's
// arcs for the buffer with the same index and endpoint K; every component
// is partitioned afresh and marked stale with no policy, so warmPolicy
// maps no earlier policy onto its first solve.
func (b *builder) reset(f *csdf.Facts, K []int64, opt Options) error {
	g := f.Graph()
	if err := checkK(g, K); err != nil {
		return err
	}
	q, err := f.Repetition()
	if err != nil {
		return err
	}
	n, nb := g.NumTasks(), g.NumBuffers()
	b.g, b.q, b.sccs, b.ctx, b.opt = g, q, f.SCCs(), nil, opt
	b.K = append(b.K[:0], K...)
	b.seq = !opt.AutoConcurrency
	b.offset, b.placed = resize(b.offset, n+1), false
	if b.mg == nil {
		b.mg = mcr.New(0)
	}
	b.bufBlocks = emptyBlocks(b.bufBlocks, nb)
	b.seqBlocks = b.seqBlocks[:0]
	if b.seq {
		b.seqBlocks = emptyBlocks(b.seqBlocks, n)
	}
	b.stats = buildStats{}
	b.partition()
	return b.checkSize()
}

// partition lists the tasks and arc blocks of each task-level strongly
// connected component of b.g, numbering the components by their lowest
// task.
func (b *builder) partition() {
	g := b.g
	n, nb := g.NumTasks(), g.NumBuffers()
	nc, ns := b.sccs.Len(), 0
	if b.seq {
		ns = n
	}
	// Number the components by their lowest task, then counting-sort the
	// tasks (ascending) and the blocks (internal buffers ascending, then
	// sequential chains) by component.
	at := resize(b.at, 3*nc+2)
	rank, tasksAt, blocksAt := at[:nc], at[nc:2*nc+1], at[2*nc+1:]
	for c := range rank {
		rank[c] = -1
	}
	clear(at[nc:])
	compOf, sccOf := resize(b.compOf, n), b.sccs.Comp
	next := 0
	for t := range n {
		r := &rank[sccOf[t]]
		if *r < 0 {
			*r = next
			next++
		}
		compOf[t] = int32(*r)
		tasksAt[*r+1]++
	}
	bufs := g.Buffers()
	for i := range bufs {
		if c := compOf[bufs[i].Src]; c == compOf[bufs[i].Dst] {
			blocksAt[c+1]++
		}
	}
	for c := range nc {
		if b.seq {
			blocksAt[c+1] += tasksAt[c+1]
		}
		tasksAt[c+1] += tasksAt[c]
		blocksAt[c+1] += blocksAt[c]
	}
	compTasks, compBlocks := resize(b.compTasks, n), resize(b.compBlocks, blocksAt[nc])
	comps := resize(b.comps, nc)
	for i := range comps {
		comps[i] = component{
			tasks:  compTasks[tasksAt[i]:tasksAt[i]:tasksAt[i+1]],
			blocks: compBlocks[blocksAt[i]:blocksAt[i]:blocksAt[i+1]],
			first:  blocksAt[i],
			stale:  true,
		}
	}
	for t := range n {
		c := &comps[compOf[t]]
		c.tasks = append(c.tasks, csdf.TaskID(t))
	}
	for i := range bufs {
		if c := compOf[bufs[i].Src]; c == compOf[bufs[i].Dst] {
			comps[c].blocks = append(comps[c].blocks, int32(i))
		}
	}
	for t := range ns {
		c := &comps[compOf[t]]
		c.blocks = append(c.blocks, int32(nb+t))
	}
	b.at, b.compOf, b.comps, b.compTasks, b.compBlocks = at, compOf, comps, compTasks, compBlocks
	b.local = resize(b.local, n)
	b.base = resize(b.base, blocksAt[nc])
	b.prevBase = resize(b.prevBase, blocksAt[nc])
	b.pols, b.emitted = b.pols[:0], nil
}

// resize returns s with length n, reallocating only when its capacity
// falls short. Entries within the old capacity keep their contents.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return slices.Grow(s[:cap(s)], n-cap(s))[:n]
	}
	return s[:n]
}

// emptyBlocks reslices blocks to n entries, each marked empty but keeping
// its arc slice's capacity.
func emptyBlocks(blocks []arcBlock, n int) []arcBlock {
	blocks = slices.Grow(blocks[:0], n)[:n]
	for i := range blocks {
		blocks[i].kSrc, blocks[i].kDst = 0, 0
	}
	return blocks
}

func checkK(g *csdf.Graph, K []int64) error {
	if len(K) != g.NumTasks() {
		return fmt.Errorf("kperiodic: K has %d entries for %d tasks", len(K), g.NumTasks())
	}
	for t, k := range K {
		if k <= 0 {
			return fmt.Errorf("kperiodic: K[%d] = %d must be positive", t, k)
		}
	}
	return nil
}

// setK switches the builder to a new periodicity vector and marks stale
// every component with a task whose K changed. Cached arc blocks are
// untouched: refresh compares every block's endpoint K values against the
// new vector and recomputes only the stale ones.
func (b *builder) setK(K []int64) error {
	if err := checkK(b.g, K); err != nil {
		return err
	}
	for t, k := range K {
		if b.K[t] != k {
			b.comps[b.compOf[t]].stale = true
			b.placed = false
		}
	}
	b.K = append(b.K[:0], K...)
	return b.checkSize()
}

// checkSize applies the size budget, nodes and constraint pairs, to the
// current K before any allocation proportional to them. Within the
// budget it records the whole graph's node count.
func (b *builder) checkSize() error {
	g, K := b.g, b.K
	var nodes, pairs int64
	for t := 0; t < g.NumTasks(); t++ {
		n, ok := rat.MulCheck(K[t], int64(g.Task(csdf.TaskID(t)).Phases()))
		if !ok {
			return &ErrTooLarge{Nodes: -1}
		}
		nodes, ok = rat.AddCheck(nodes, n)
		if !ok {
			return &ErrTooLarge{Nodes: -1}
		}
	}
	for i := 0; i < g.NumBuffers(); i++ {
		buf := g.Buffer(csdf.BufferID(i))
		nS, okS := rat.MulCheck(K[buf.Src], int64(g.Task(buf.Src).Phases()))
		nD, okD := rat.MulCheck(K[buf.Dst], int64(g.Task(buf.Dst).Phases()))
		p, okP := int64(0), false
		if okS && okD {
			p, okP = rat.MulCheck(nS, nD)
		}
		if !okP {
			return &ErrTooLarge{Nodes: nodes, Pairs: -1}
		}
		pairs, okP = rat.AddCheck(pairs, p)
		if !okP {
			return &ErrTooLarge{Nodes: nodes, Pairs: -1}
		}
	}
	if b.opt.MaxNodes > 0 && nodes > b.opt.MaxNodes {
		return &ErrTooLarge{Nodes: nodes, Pairs: pairs}
	}
	if b.opt.MaxPairs > 0 && pairs > b.opt.MaxPairs {
		return &ErrTooLarge{Nodes: nodes, Pairs: pairs}
	}
	b.nodes = int(nodes)
	return nil
}

// offsets returns every task's node offset in the whole graph, laying
// them out after a K change.
func (b *builder) offsets() []int {
	if !b.placed {
		n := 0
		for t := range b.g.NumTasks() {
			b.offset[t] = n
			n += int(b.K[t]) * b.g.Task(csdf.TaskID(t)).Phases()
		}
		b.offset[b.g.NumTasks()] = n
		b.placed = true
	}
	return b.offset
}

// place lays out component c's tasks in its own graph, after a change of
// their K.
func (b *builder) place(c *component) {
	c.nodes = 0
	for _, t := range c.tasks {
		b.local[t] = c.nodes
		c.nodes += int(b.K[t]) * b.g.Task(t).Phases()
	}
}

// lcmK returns lcm(K), in big arithmetic once it leaves int64.
func lcmK(K []int64) *big.Int {
	if l, ok := rat.LcmAll(K...); ok {
		return big.NewInt(l)
	}
	l, tmp, kb := big.NewInt(1), new(big.Int), new(big.Int)
	for _, k := range K {
		kb.SetInt64(k)
		tmp.GCD(nil, nil, l, kb)
		l.Div(l, tmp).Mul(l, kb)
	}
	return l
}

// node returns the bi-valued graph node of ⟨t, p̃⟩ with p̃ 1-based.
func (b *builder) node(t csdf.TaskID, pTilde int) int {
	return b.offsets()[t] + pTilde - 1
}

// phaseRef inverts node.
func (b *builder) phaseRef(node int) PhaseRef {
	// Binary search for the last task whose region starts at or before
	// node.
	offset := b.offsets()
	lo, hi := 0, len(offset)-1
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if offset[mid] <= node {
			lo = mid
		} else {
			hi = mid
		}
	}
	return PhaseRef{Task: csdf.TaskID(lo), Phase: node - offset[lo] + 1}
}

// duration returns d̃(tp̃) = d(t, ((p̃−1) mod ϕ)+1).
func (b *builder) duration(t csdf.TaskID, pTilde int) int64 {
	task := b.g.Task(t)
	return task.Durations[(pTilde-1)%task.Phases()]
}

// refresh brings the arc blocks up to date with the current K: buffer
// and sequential blocks whose endpoint K values are unchanged since their
// last computation are kept for replay; the rest are re-enumerated. Every
// block is refreshed, including those of buffers between components, so
// the round's statistics and b.arcs describe the whole bi-valued graph.
func (b *builder) refresh() error {
	b.stats = buildStats{}
	nb := b.g.NumBuffers()
	b.replayed = resize(b.replayed, nb+len(b.seqBlocks))
	b.arcs, b.emitted = 0, nil
	for i := range b.replayed {
		blk, src, dst := b.block(i)
		b.replayed[i] = blk.kSrc == b.K[src] && blk.kDst == b.K[dst]
		if b.replayed[i] {
			b.stats.arcsReused += len(blk.arcs)
		} else {
			if i < nb {
				if err := b.computeBufferBlock(blk, b.g.Buffer(csdf.BufferID(i))); err != nil {
					return err
				}
			} else {
				b.computeSequentialBlock(blk, src)
			}
			b.stats.arcsBuilt += len(blk.arcs)
		}
		b.arcs += len(blk.arcs)
	}
	return nil
}

// block returns block i — buffer i's, or for i ≥ NumBuffers the
// sequential chain of task i − NumBuffers — with its endpoint tasks.
func (b *builder) block(i int) (blk *arcBlock, src, dst csdf.TaskID) {
	nb := b.g.NumBuffers()
	if i < nb {
		buf := b.g.Buffer(csdf.BufferID(i))
		return &b.bufBlocks[i], buf.Src, buf.Dst
	}
	t := csdf.TaskID(i - nb)
	return &b.seqBlocks[t], t, t
}

// build refreshes the blocks and assembles the whole bi-valued graph in
// b.mg, whose arena is pre-sized to the exact total and reused across
// calls. Solving needs only the component graphs (emitComponent); the
// whole graph serves the schedule's potentials and the exported arcs.
func (b *builder) build() error {
	if err := b.refresh(); err != nil {
		return err
	}
	offset := b.offsets()
	b.mg.Reset(b.nodes)
	b.mg.Reserve(b.arcs)
	for i := range b.replayed {
		blk, src, dst := b.block(i)
		emit(b.mg, blk, offset[src], offset[dst])
	}
	return nil
}

// emitComponent assembles component c's graph in b.mg from the current
// blocks of its internal buffers and sequential chains, in
// component-local nodes, unless b.mg holds it already.
func (b *builder) emitComponent(c *component) {
	if b.emitted == c {
		return
	}
	total := 0
	for _, i := range c.blocks {
		blk, _, _ := b.block(int(i))
		total += len(blk.arcs)
	}
	b.mg.Reset(c.nodes)
	b.mg.Reserve(total)
	base := b.base[c.first : c.first+len(c.blocks)]
	copy(b.prevBase[c.first:], base)
	for k, i := range c.blocks {
		blk, src, dst := b.block(int(i))
		base[k] = b.mg.NumArcs()
		emit(b.mg, blk, b.local[src], b.local[dst])
	}
	b.emitted = c
}

// warmPolicy maps c.pol, the final policy of c's previous solve, onto its
// graph in b.mg as a Howard starting policy. c is re-emitted in every
// round that changes one of its tasks' K, so a block the latest refresh
// replayed holds the same arcs, in the same order, as in c's previous
// emission, and a policy arc inside it moves to current base + (old arc −
// previous base). Every other node — one whose task's K changed, or whose
// policy arc lies in a rebuilt block — gets −1, Howard's default choice.
// Before c's first solve there is no policy, and the result is nil.
func (b *builder) warmPolicy(c *component) []int32 {
	if len(c.pol) == 0 {
		return nil
	}
	base := b.base[c.first : c.first+len(c.blocks)]
	prev := b.prevBase[c.first : c.first+len(c.blocks)]
	b.warm = resize(b.warm, c.nodes)
	for i := range b.warm {
		b.warm[i] = -1
	}
	for _, a := range c.pol {
		if a < 0 {
			continue
		}
		// The block holding arc a is the last one starting at or before it.
		k, _ := slices.BinarySearch(prev, int(a)+1)
		k--
		if k < 0 || !b.replayed[c.blocks[k]] {
			continue
		}
		na := base[k] + int(a) - prev[k]
		b.warm[b.mg.Arc(na).From] = int32(na)
	}
	return b.warm
}

// keepPolicy stores pol as c's policy in b.pols: in c's slot when it
// fits, else in a new slot of twice the length at the end, which leaves
// the old slot unused until the next reset.
func (b *builder) keepPolicy(c *component, pol []int32) {
	if len(pol) > cap(c.pol) {
		at := len(b.pols)
		b.pols = slices.Grow(b.pols, 2*len(pol))[:at+2*len(pol)]
		c.pol = b.pols[at:at:len(b.pols)]
	}
	c.pol = append(c.pol[:0], pol...)
}

// localRef maps node, a node of component c's graph, to its expanded
// phase.
func (b *builder) localRef(c *component, node int) PhaseRef {
	// Binary search for the last task whose region starts at or before
	// node: the component's tasks, and so their local offsets, ascend.
	lo, hi := 0, len(c.tasks)
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if b.local[c.tasks[mid]] <= node {
			lo = mid
		} else {
			hi = mid
		}
	}
	t := c.tasks[lo]
	return PhaseRef{Task: t, Phase: node - b.local[t] + 1}
}

// emit replays one block into mg, re-basing its local coordinates on the
// given task region offsets.
func emit(mg *mcr.Graph, blk *arcBlock, offSrc, offDst int) {
	for i := range blk.arcs {
		a := &blk.arcs[i]
		mg.AddArcHF(offSrc+int(a.from), offDst+int(a.to), a.l, a.h, a.hf)
	}
}

// pollPairs is how many phase pairs computeBufferBlock tests between two
// cancellation polls, after the poll that starts every block: a cancel
// lands within one block's setup plus a few thousand pair tests, while a
// poll, which locks a cancellable context, stays rare next to the pairs.
const pollPairs = 4096

// computeBufferBlock enumerates the useful pairs of one buffer of G̃ into
// its arc block.
//
// With src = t, dst = t′, expanded phase counts ϕ̃ = Kt·ϕ(t) and
// ϕ̃′ = Kt′·ϕ(t′), expanded totals ĩ = Kt·ib and õ = Kt′·ob:
//
//	Q(p,p′)  = O⟨t′p′,1⟩ − I⟨tp,1⟩ − M0 + ĩn(p)
//	α(p,p′)  = ⌈Q − min(ĩn(p), õut(p′))⌉_gcd(ĩ,õ)
//	β(p,p′)  = ⌊Q − 1⌋_gcd(ĩ,õ)
//
// and each pair with α ≤ β yields the arc ⟨tp,1⟩ → ⟨t′p′,1⟩ with
// H = −β/(qt·ib), an int64-backed rational: the denominator is constant
// across the block, so the whole enumeration allocates nothing beyond the
// block's arc slice.
//
// Only pairs that can be useful are tested. A pair is useful iff a
// multiple of g = gcd(ĩ,õ) lies in [Q − min(ĩn(p), õut(p′)), Q − 1], so
// a row p with ĩn(p) = 0 has no arc. For a fixed row, with
// base = ĩn(p) − I⟨tp,1⟩ − M0, that interval lies inside p′'s window
// [O⟨t′p′−1,1⟩ + base, O⟨t′p′,1⟩ + base − 1], and the windows partition
// [base, base + õ − 1]. So every multiple of g in that range falls in
// exactly one p′'s window, and a p′ whose window holds none has no arc.
// The row walk jumps from multiple to multiple: it finds the window of
// the next multiple by binary search over the cumulative consumptions,
// tests that p′, and resumes at the first multiple past its window. A row
// holds õ/g multiples; when that is at least ϕ̃′ the row is scanned pair
// by pair instead. Either way the arcs come out in the order of p′.
func (b *builder) computeBufferBlock(blk *arcBlock, buf *csdf.Buffer) error {
	if b.ctx != nil {
		if err := b.ctx.Err(); err != nil {
			return err
		}
	}
	src, dst := buf.Src, buf.Dst
	phiS := b.g.Task(src).Phases()
	phiD := b.g.Task(dst).Phases()
	nS := int(b.K[src]) * phiS
	nD := int(b.K[dst]) * phiD
	ib, ob := buf.TotalIn(), buf.TotalOut()

	iTil, ok := rat.MulCheck(b.K[src], ib)
	if !ok {
		return &rat.ErrOverflow{Op: "expanded production total"}
	}
	oTil, ok := rat.MulCheck(b.K[dst], ob)
	if !ok {
		return &rat.ErrOverflow{Op: "expanded consumption total"}
	}
	gcd := rat.Gcd(iTil, oTil)
	walk := oTil/gcd < int64(nD)

	// den = qt·ib: the lcm-free H denominator, constant per buffer.
	den, denOK := rat.MulCheck(b.q[src], ib)

	// Cumulative expanded I and O at the first execution of each phase.
	if cap(b.cumI) < nS+1 {
		b.cumI = make([]int64, nS+1)
	}
	cumI := b.cumI[:nS+1] // cumI[p] = Ĩ⟨tp,1⟩
	cumI[0] = 0
	for p := 1; p <= nS; p++ {
		cumI[p] = cumI[p-1] + buf.In[(p-1)%phiS]
	}
	if cap(b.cumO) < nD+1 {
		b.cumO = make([]int64, nD+1)
	}
	cumO := b.cumO[:nD+1]
	cumO[0] = 0
	for p := 1; p <= nD; p++ {
		cumO[p] = cumO[p-1] + buf.Out[(p-1)%phiD]
	}

	blk.kSrc, blk.kDst = 0, 0 // invalid until fully recomputed
	blk.arcs = blk.arcs[:0]
	tested, nextPoll := 0, pollPairs
	for p := 1; p <= nS; p++ {
		inP := buf.In[(p-1)%phiS]
		if inP == 0 {
			continue
		}
		if tested >= nextPoll && b.ctx != nil {
			if err := b.ctx.Err(); err != nil {
				b.stats.pairsTested += tested
				return err
			}
			nextPoll = tested + pollPairs
		}
		l := b.duration(src, p)
		from := int32(p - 1)
		base := -cumI[p] - buf.Initial + inP
		end := base + oTil // the windows cover [base, end − 1]
		x := int64(0)      // the walk's next multiple of gcd
		if walk {
			x = rat.CeilTo(base, gcd)
		}
		for pp := 1; ; pp++ {
			if walk {
				if x >= end {
					break
				}
				// The first p′ whose window ends past x.
				y, hi := x-base, nD
				for pp < hi {
					mid := int(uint(pp+hi) >> 1)
					if cumO[mid] > y {
						hi = mid
					} else {
						pp = mid + 1
					}
				}
				x = rat.CeilTo(cumO[pp]+base, gcd)
			} else if pp > nD {
				break
			}
			tested++
			outP := buf.Out[(pp-1)%phiD]
			q := cumO[pp] + base
			alpha := rat.CeilTo(q-min(inP, outP), gcd)
			beta := rat.FloorTo(q-1, gcd)
			if alpha > beta {
				continue
			}
			var h rat.Rat
			if denOK {
				h = rat.NewRat(-beta, den)
			} else {
				num := big.NewInt(-beta)
				d := new(big.Int).Mul(big.NewInt(b.q[src]), big.NewInt(ib))
				h = rat.FromBigInts(num, d)
			}
			blk.arcs = append(blk.arcs, blockArc{
				from: from,
				to:   int32(pp - 1),
				l:    l,
				h:    h,
				hf:   h.Float(),
			})
		}
	}
	b.stats.pairsTested += tested
	blk.kSrc, blk.kDst = b.K[src], b.K[dst]
	return nil
}

// computeSequentialBlock caches the arcs enforcing the ordered,
// non-overlapping execution of a task's phases. These are exactly the
// useful pairs of an implicit self-buffer with unit rates and one initial
// token: an arc p̃ → p̃+1 with β = 0 for consecutive phases, and the
// wrap-around arc ϕ̃ → 1 with β = −ϕ̃, i.e. H = Kt/qt in the lcm-free
// normalization.
func (b *builder) computeSequentialBlock(blk *arcBlock, t csdf.TaskID) {
	phi := b.g.Task(t).Phases()
	n := int(b.K[t]) * phi
	blk.arcs = slices.Grow(blk.arcs[:0], n)
	for p := 1; p < n; p++ {
		blk.arcs = append(blk.arcs, blockArc{
			from: int32(p - 1),
			to:   int32(p),
			l:    b.duration(t, p),
		})
	}
	// Wrap-around: the next periodicity window starts after this one.
	h := rat.NewRat(b.K[t], b.q[t])
	blk.arcs = append(blk.arcs, blockArc{
		from: int32(n - 1),
		to:   0,
		l:    b.duration(t, n),
		h:    h,
		hf:   h.Float(),
	})
	blk.kSrc, blk.kDst = b.K[t], b.K[t]
}
