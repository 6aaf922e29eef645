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
// endpoint periodicity changed.
type builder struct {
	g      *csdf.Graph
	q      []int64
	K      []int64
	lcmK   *big.Int
	offset []int // node index of ⟨t1,1⟩ per task
	nodes  int
	mg     *mcr.Graph
	seq    bool            // add implicit sequential self-loops
	ctx    context.Context // polled during pair enumeration; nil = never cancelled
	opt    Options         // size budgets, re-checked on every setK

	bufBlocks []arcBlock // per-buffer cached constraint arcs
	seqBlocks []arcBlock // per-task cached sequential arcs (seq only)
	cumI      []int64    // pair-enumeration scratch
	cumO      []int64
	stats     buildStats

	// Arc-index bookkeeping for warm-starting the MCRP across rounds:
	// the index of every block's first arc (buffer blocks, then
	// sequential blocks) in the latest and in the previous build, and
	// which blocks the latest build replayed unchanged.
	base, prevBase []int
	replayed       []bool
	warm           []int32 // warmPolicy result
}

// buildStats counts the incremental work of the latest build call.
type buildStats struct {
	arcsBuilt  int // arcs recomputed by pair enumeration this round
	arcsReused int // arcs replayed from a previous round's block cache
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

// reset points the builder at a new (g, q, K) while keeping every backing
// array it grew for earlier graphs: the block caches' arc slices, the
// MCRP graph's arena and CSR arrays, and the pair-enumeration scratch.
// Nothing from an earlier graph is reused as data. Every block is marked
// empty, so build re-enumerates it instead of replaying another graph's
// arcs for the buffer with the same index and endpoint K; the arc-index
// bookkeeping is emptied, so warmPolicy maps no earlier policy onto the
// first build.
func (b *builder) reset(g *csdf.Graph, q, K []int64, opt Options) error {
	if err := checkK(g, K); err != nil {
		return err
	}
	b.g, b.q, b.ctx, b.opt = g, q, nil, opt
	b.K = append(b.K[:0], K...)
	b.seq = !opt.AutoConcurrency
	b.offset = slices.Grow(b.offset[:0], g.NumTasks()+1)[:g.NumTasks()+1]
	if b.mg == nil {
		b.mg = mcr.New(0)
	}
	b.bufBlocks = emptyBlocks(b.bufBlocks, g.NumBuffers())
	b.seqBlocks = b.seqBlocks[:0]
	if b.seq {
		b.seqBlocks = emptyBlocks(b.seqBlocks, g.NumTasks())
	}
	b.base, b.prevBase, b.replayed, b.warm = b.base[:0], b.prevBase[:0], b.replayed[:0], b.warm[:0]
	b.stats = buildStats{}
	return b.layout()
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

// setK switches the builder to a new periodicity vector. Cached arc
// blocks are untouched: build compares every block's endpoint K values
// against the new vector and recomputes only the stale ones.
func (b *builder) setK(K []int64) error {
	if err := checkK(b.g, K); err != nil {
		return err
	}
	b.K = append(b.K[:0], K...)
	return b.layout()
}

// layout recomputes everything that depends on the whole K vector — the
// size budget, lcm(K), and the task node offsets — and is therefore
// redone on every round regardless of block reuse.
func (b *builder) layout() error {
	g, K := b.g, b.K
	// Size budget: nodes and constraint pairs, checked before any
	// allocation proportional to them.
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
	b.nodes = 0
	for t := 0; t < g.NumTasks(); t++ {
		b.offset[t] = b.nodes
		b.nodes += int(K[t]) * g.Task(csdf.TaskID(t)).Phases()
	}
	b.offset[g.NumTasks()] = b.nodes
	if b.lcmK == nil {
		b.lcmK = new(big.Int)
	}
	if l, ok := rat.LcmAll(K...); ok {
		b.lcmK.SetInt64(l)
		return nil
	}
	// lcm(K) left int64; fold it in big arithmetic.
	b.lcmK.SetInt64(1)
	tmp := new(big.Int)
	kb := new(big.Int)
	for _, k := range K {
		kb.SetInt64(k)
		tmp.GCD(nil, nil, b.lcmK, kb)
		b.lcmK.Div(b.lcmK, tmp).Mul(b.lcmK, kb)
	}
	return nil
}

// node returns the bi-valued graph node of ⟨t, p̃⟩ with p̃ 1-based.
func (b *builder) node(t csdf.TaskID, pTilde int) int {
	return b.offset[t] + pTilde - 1
}

// phaseRef inverts node.
func (b *builder) phaseRef(node int) PhaseRef {
	// Binary search over offsets (tasks are few; linear is fine too).
	lo, hi := 0, len(b.offset)-1
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if b.offset[mid] <= node {
			lo = mid
		} else {
			hi = mid
		}
	}
	return PhaseRef{Task: csdf.TaskID(lo), Phase: node - b.offset[lo] + 1}
}

// duration returns d̃(tp̃) = d(t, ((p̃−1) mod ϕ)+1).
func (b *builder) duration(t csdf.TaskID, pTilde int) int64 {
	task := b.g.Task(t)
	return task.Durations[(pTilde-1)%task.Phases()]
}

// build brings the constraint graph up to date with the current K:
// buffer and sequential arc blocks whose endpoint K values are unchanged
// since their last computation are replayed from the cache (re-based on
// the current node offsets); the rest are re-enumerated. The assembled
// arcs land in b.mg, whose arena is pre-sized to the exact total and
// reused across rounds.
func (b *builder) build() error {
	b.stats = buildStats{}
	nb := b.g.NumBuffers()
	b.replayed = slices.Grow(b.replayed[:0], nb+len(b.seqBlocks))[:nb+len(b.seqBlocks)]
	for i := 0; i < nb; i++ {
		buf := b.g.Buffer(csdf.BufferID(i))
		blk := &b.bufBlocks[i]
		b.replayed[i] = blk.kSrc == b.K[buf.Src] && blk.kDst == b.K[buf.Dst]
		if b.replayed[i] {
			b.stats.arcsReused += len(blk.arcs)
			continue
		}
		if err := b.computeBufferBlock(blk, buf); err != nil {
			return err
		}
		b.stats.arcsBuilt += len(blk.arcs)
	}
	for t := range b.seqBlocks {
		blk := &b.seqBlocks[t]
		b.replayed[nb+t] = blk.kSrc == b.K[t] && blk.kDst == b.K[t]
		if b.replayed[nb+t] {
			b.stats.arcsReused += len(blk.arcs)
			continue
		}
		b.computeSequentialBlock(blk, csdf.TaskID(t))
		b.stats.arcsBuilt += len(blk.arcs)
	}
	total := 0
	for i := range b.bufBlocks {
		total += len(b.bufBlocks[i].arcs)
	}
	for i := range b.seqBlocks {
		total += len(b.seqBlocks[i].arcs)
	}
	b.mg.Reset(b.nodes)
	b.mg.Reserve(total)
	b.prevBase, b.base = b.base, b.prevBase[:0]
	for i := range b.bufBlocks {
		buf := b.g.Buffer(csdf.BufferID(i))
		b.base = append(b.base, b.mg.NumArcs())
		b.emit(&b.bufBlocks[i], b.offset[buf.Src], b.offset[buf.Dst])
	}
	for t := range b.seqBlocks {
		b.base = append(b.base, b.mg.NumArcs())
		b.emit(&b.seqBlocks[t], b.offset[t], b.offset[t])
	}
	return nil
}

// warmPolicy maps prev, the final MCRP policy on the previous build's
// graph, onto the current graph as a Howard starting policy. A block the
// current build replayed holds the same arcs in the same order, so a
// policy arc inside it moves to current base + (old arc − previous base).
// Every other node — one whose task's K changed, or whose policy arc lies
// in a rebuilt block — gets −1, Howard's default choice. After the first
// build there is no previous graph, and the result is nil.
func (b *builder) warmPolicy(prev []int32) []int32 {
	if len(b.prevBase) == 0 || len(prev) == 0 {
		return nil
	}
	b.warm = slices.Grow(b.warm[:0], b.nodes)[:b.nodes]
	for i := range b.warm {
		b.warm[i] = -1
	}
	for _, a := range prev {
		if a < 0 {
			continue
		}
		// The block holding arc a is the last one starting at or before it.
		blk, _ := slices.BinarySearch(b.prevBase, int(a)+1)
		blk--
		if blk < 0 || !b.replayed[blk] {
			continue
		}
		na := b.base[blk] + int(a) - b.prevBase[blk]
		b.warm[b.mg.Arc(na).From] = int32(na)
	}
	return b.warm
}

// emit replays one block into the constraint graph, re-basing its local
// coordinates on the current task region offsets.
func (b *builder) emit(blk *arcBlock, offSrc, offDst int) {
	for i := range blk.arcs {
		a := &blk.arcs[i]
		b.mg.AddArcHF(offSrc+int(a.from), offDst+int(a.to), a.l, a.h, a.hf)
	}
}

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
func (b *builder) computeBufferBlock(blk *arcBlock, buf *csdf.Buffer) error {
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
	for p := 1; p <= nS; p++ {
		// One cancellation poll per source phase row: each row costs
		// O(nD) arc insertions, so the poll is amortized while still
		// bounding the latency of a cancel to a single row.
		if b.ctx != nil {
			if err := b.ctx.Err(); err != nil {
				return err
			}
		}
		inP := buf.In[(p-1)%phiS]
		l := b.duration(src, p)
		from := int32(p - 1)
		base := -cumI[p] - buf.Initial + inP
		for pp := 1; pp <= nD; pp++ {
			outP := buf.Out[(pp-1)%phiD]
			q := cumO[pp] + base
			m := inP
			if outP < m {
				m = outP
			}
			alpha := rat.CeilTo(q-m, gcd)
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
