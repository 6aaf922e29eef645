package kperiodic

import (
	"math"
	"math/big"
	"math/rand"
	"testing"

	"kiter/internal/csdf"
	"kiter/internal/rat"
)

// quadraticBlock is the reference computeBufferBlock must match: it tests
// every pair (p, p′) of ϕ̃ × ϕ̃′ for α ≤ β and returns the useful ones'
// arcs in row-major order, with the expansion of Theorem 2 written out as
// plainly as possible.
func quadraticBlock(g *csdf.Graph, q, K []int64, buf *csdf.Buffer) ([]blockArc, error) {
	src, dst := buf.Src, buf.Dst
	phiS, phiD := g.Task(src).Phases(), g.Task(dst).Phases()
	nS, nD := int(K[src])*phiS, int(K[dst])*phiD
	ib, ob := buf.TotalIn(), buf.TotalOut()
	iTil, ok := rat.MulCheck(K[src], ib)
	if !ok {
		return nil, &rat.ErrOverflow{Op: "expanded production total"}
	}
	oTil, ok := rat.MulCheck(K[dst], ob)
	if !ok {
		return nil, &rat.ErrOverflow{Op: "expanded consumption total"}
	}
	gcd := rat.Gcd(iTil, oTil)
	den := new(big.Int).Mul(big.NewInt(q[src]), big.NewInt(ib))
	cumI := make([]int64, nS+1)
	for p := 1; p <= nS; p++ {
		cumI[p] = cumI[p-1] + buf.In[(p-1)%phiS]
	}
	cumO := make([]int64, nD+1)
	for p := 1; p <= nD; p++ {
		cumO[p] = cumO[p-1] + buf.Out[(p-1)%phiD]
	}
	var arcs []blockArc
	for p := 1; p <= nS; p++ {
		inP := buf.In[(p-1)%phiS]
		for pp := 1; pp <= nD; pp++ {
			outP := buf.Out[(pp-1)%phiD]
			Q := cumO[pp] - cumI[p] - buf.Initial + inP
			alpha := rat.CeilTo(Q-min(inP, outP), gcd)
			beta := rat.FloorTo(Q-1, gcd)
			if alpha > beta {
				continue
			}
			h := rat.FromBigInts(big.NewInt(-beta), den)
			arcs = append(arcs, blockArc{
				from: int32(p - 1),
				to:   int32(pp - 1),
				l:    g.Task(src).Durations[(p-1)%phiS],
				h:    h,
				hf:   h.Float(),
			})
		}
	}
	return arcs, nil
}

// blockCase is one buffer of the block differential: a two-task graph
// (or one task with a self-loop), a repetition vector and K.
type blockCase struct {
	g    *csdf.Graph
	q, K []int64
}

// blockShape fixes what a blockCase draws at random: the phase counts,
// the K of both endpoints, the initial marking, the common factor of
// every rate (so gcd(ĩ, õ) > 1 often), whether the buffer is a self-loop,
// and whether the source's qt makes qt·ib leave int64, which sends H down
// the big-integer path.
type blockShape struct {
	phiS, phiD, kS, kD int
	m0, factor         int64
	selfLoop, bigH     bool
}

// randomShape draws a blockShape with initial markings up to 10¹².
func randomShape(rng *rand.Rand) blockShape {
	s := blockShape{
		phiS: 1 + rng.Intn(4), phiD: 1 + rng.Intn(4),
		kS: 1 + rng.Intn(12), kD: 1 + rng.Intn(12),
		factor:   int64(1 + rng.Intn(4)),
		selfLoop: rng.Intn(6) == 0,
		bigH:     rng.Intn(10) == 0,
	}
	switch rng.Intn(3) {
	case 0:
		s.m0 = int64(rng.Intn(20))
	case 1:
		s.m0 = rng.Int63n(1000)
	default:
		s.m0 = rng.Int63n(1e12)
	}
	return s
}

// blockCaseOf builds the buffer of shape s, drawing rates (a third of
// them zero) and durations from rng.
func blockCaseOf(rng *rand.Rand, s blockShape) blockCase {
	rates := func(n int) []int64 {
		r := make([]int64, n)
		for {
			var sum int64
			for i := range r {
				r[i] = 0
				if rng.Intn(3) > 0 {
					r[i] = s.factor * int64(rng.Intn(7))
				}
				sum += r[i]
			}
			if sum > 0 {
				return r
			}
		}
	}
	durations := func(n int) []int64 {
		d := make([]int64, n)
		for i := range d {
			d[i] = int64(rng.Intn(9))
		}
		return d
	}
	g := csdf.NewGraph("block")
	src := g.AddTask("s", durations(s.phiS))
	dst, phiD := src, s.phiS
	if !s.selfLoop {
		dst, phiD = g.AddTask("d", durations(s.phiD)), s.phiD
	}
	g.AddBuffer("b", src, dst, rates(s.phiS), rates(phiD), s.m0)
	c := blockCase{g: g, q: make([]int64, g.NumTasks()), K: make([]int64, g.NumTasks())}
	for t := range c.q {
		c.q[t] = 1 + rng.Int63n(60)
	}
	c.K[src], c.K[dst] = int64(s.kS), int64(s.kD)
	if s.bigH {
		c.q[src] = math.MaxInt64/2 + rng.Int63n(1<<20)
	}
	return c
}

// checkBlock compares computeBufferBlock against quadraticBlock on c:
// the same arcs (from, to, L, H and its float) in the same order, and
// the same error.
func checkBlock(t *testing.T, c blockCase) {
	t.Helper()
	buf := c.g.Buffer(0)
	want, wantErr := quadraticBlock(c.g, c.q, c.K, buf)
	b := &builder{g: c.g, q: c.q, K: c.K}
	var blk arcBlock
	err := b.computeBufferBlock(&blk, buf)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("error %v, reference %v", err, wantErr)
	}
	if err != nil {
		return
	}
	if len(blk.arcs) != len(want) {
		t.Fatalf("K=%v q=%v buffer %v/%v M0=%d: %d arcs, reference %d",
			c.K, c.q, buf.In, buf.Out, buf.Initial, len(blk.arcs), len(want))
	}
	for i, a := range blk.arcs {
		w := want[i]
		if a.from != w.from || a.to != w.to || a.l != w.l || a.h.Cmp(w.h) != 0 || a.hf != w.hf {
			t.Fatalf("K=%v q=%v buffer %v/%v M0=%d: arc %d is (%d→%d L%d H%s), reference (%d→%d L%d H%s)",
				c.K, c.q, buf.In, buf.Out, buf.Initial, i, a.from, a.to, a.l, a.h, w.from, w.to, w.l, w.h)
		}
	}
	if blk.kSrc != c.K[buf.Src] || blk.kDst != c.K[buf.Dst] {
		t.Fatalf("block marked for K (%d, %d), want (%d, %d)", blk.kSrc, blk.kDst, c.K[buf.Src], c.K[buf.Dst])
	}
	if nS, nD := c.K[buf.Src]*int64(len(buf.In)), c.K[buf.Dst]*int64(len(buf.Out)); int64(b.stats.pairsTested) > nS*nD {
		t.Fatalf("tested %d pairs of %d", b.stats.pairsTested, nS*nD)
	}
}

// TestBufferBlockMatchesQuadratic is the differential test of the
// useful-pair walk: over random buffers and random K, including zero
// rates, large initial markings, gcd(ĩ, õ) > 1, self-loops and the
// big-integer H path, computeBufferBlock must produce exactly the
// reference's arc block.
func TestBufferBlockMatchesQuadratic(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for range 3000 {
		checkBlock(t, blockCaseOf(rng, randomShape(rng)))
	}
}

// TestBufferBlockWalksFewerPairs checks that the walk pays off where the
// paper says it does: on the H263Decoder shape (final K = [1 99 99 1]),
// the 99 × 99 buffer keeps one arc per row and is walked, not scanned.
func TestBufferBlockWalksFewerPairs(t *testing.T) {
	g := csdf.NewGraph("vld-idct")
	a := g.AddSDFTask("vld", 1)
	b := g.AddSDFTask("idct", 1)
	g.AddSDFBuffer("b", a, b, 1, 1, 0)
	bl := &builder{g: g, q: []int64{99, 99}, K: []int64{99, 99}}
	var blk arcBlock
	if err := bl.computeBufferBlock(&blk, g.Buffer(0)); err != nil {
		t.Fatal(err)
	}
	if len(blk.arcs) != 99 || bl.stats.pairsTested != 99 {
		t.Fatalf("%d arcs from %d tested pairs, want 99 from 99 (of 9801)", len(blk.arcs), bl.stats.pairsTested)
	}
}

// FuzzBufferBlock is TestBufferBlockMatchesQuadratic driven by the
// fuzzer, which picks the buffer's shape; the seed draws its rates and
// durations. The checked-in corpus in testdata/fuzz/FuzzBufferBlock
// holds walked and scanned rows, zero rates, large markings, a self-loop
// and the big-integer H path.
func FuzzBufferBlock(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(3), uint8(4), uint8(6), int64(0), uint8(1), false, false)
	f.Add(int64(2), uint8(1), uint8(1), uint8(99), uint8(99), int64(3), uint8(1), false, false)
	f.Add(int64(3), uint8(3), uint8(2), uint8(5), uint8(2), int64(1e12), uint8(3), false, true)
	f.Fuzz(func(t *testing.T, seed int64, phiS, phiD, kS, kD uint8, m0 int64, factor uint8, selfLoop, bigH bool) {
		if m0 < 0 {
			m0 = -(m0 + 1)
		}
		s := blockShape{
			phiS: 1 + int(phiS%6), phiD: 1 + int(phiD%6),
			kS: 1 + int(kS%100), kD: 1 + int(kD%100),
			m0: m0 % (1 << 50), factor: 1 + int64(factor%6),
			selfLoop: selfLoop, bigH: bigH,
		}
		checkBlock(t, blockCaseOf(rand.New(rand.NewSource(seed)), s))
	})
}
