package csdf

import (
	"errors"
	"fmt"
	"math/big"

	"kiter/internal/rat"
)

// ErrInconsistent is returned when no repetition vector exists, i.e. the
// balance equations qt·ib = qt′·ob admit no positive integer solution.
var ErrInconsistent = errors.New("csdf: graph is not consistent (no repetition vector)")

// ErrRepetitionOverflow is returned by RepetitionVector when the smallest
// repetition vector does not fit in int64 components.
var ErrRepetitionOverflow = errors.New("csdf: repetition vector exceeds int64")

// repetition computes the smallest positive integer repetition vector q
// such that qt·ib = qt′·ob for every buffer b = (t, t′) (Section 2.2),
// each weakly-connected component normalized independently to its
// smallest integer solution. It is exact on rat.Rat: the arithmetic stays
// in int64 while the magnitudes allow and is promoted to math/big only
// when they do not, so the paper's overflow in SDF3's implementation
// cannot happen here. It is the reference repetitionInt must match.
func (g *Graph) repetition() ([]rat.Rat, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g.repetitionRat()
}

// repetitionRat is repetition on a validated graph.
func (g *Graph) repetitionRat() ([]rat.Rat, error) {
	n := len(g.tasks)
	// Undirected buffer incidence as one flat index: the buffers touching
	// task t are inc[start[t]:start[t+1]].
	start := make([]int32, n+1)
	for i := range g.buffers {
		b := &g.buffers[i]
		start[b.Src+1]++
		if b.Dst != b.Src {
			start[b.Dst+1]++
		}
	}
	for t := 0; t < n; t++ {
		start[t+1] += start[t]
	}
	inc := make([]int32, start[n])
	fill := append([]int32(nil), start[:n]...)
	for i := range g.buffers {
		b := &g.buffers[i]
		inc[fill[b.Src]] = int32(i)
		fill[b.Src]++
		if b.Dst != b.Src {
			inc[fill[b.Dst]] = int32(i)
			fill[b.Dst]++
		}
	}

	// Fractional solution per component by BFS: fixing f(root) = 1, each
	// buffer b = (t, t′) forces f(t′) = f(t)·ib/ob. Every buffer is met
	// from both endpoints, so the BFS also checks every balance equation.
	// Fractions are positive; zero marks an unvisited task.
	q := make([]rat.Rat, n)
	queue := make([]int32, 0, n)
	for root := 0; root < n; root++ {
		if !q[root].IsZero() {
			continue
		}
		first := len(queue)
		q[root] = rat.FromInt(1)
		queue = append(queue, int32(root))
		for head := first; head < len(queue); head++ {
			u := TaskID(queue[head])
			for _, bi := range inc[start[u]:start[u+1]] {
				b := &g.buffers[bi]
				ib, ob := b.TotalIn(), b.TotalOut()
				if b.Src == b.Dst {
					if ib != ob {
						return nil, fmt.Errorf("%w: self-loop buffer %d has ib=%d ≠ ob=%d", ErrInconsistent, bi, ib, ob)
					}
					continue
				}
				to, ratio := b.Dst, rat.NewRat(ib, ob)
				if b.Src != u {
					to, ratio = b.Src, rat.NewRat(ob, ib)
				}
				want := q[u].Mul(ratio)
				if q[to].IsZero() {
					q[to] = want
					queue = append(queue, int32(to))
				} else if q[to].Cmp(want) != 0 {
					return nil, fmt.Errorf("%w: cycle through buffer %d imbalanced", ErrInconsistent, bi)
				}
			}
		}
		// Scale the component to the smallest positive integer vector:
		// divide by the rational gcd of its fractions.
		comp := queue[first:]
		var gcd rat.Rat
		for _, t := range comp {
			gcd = rat.GcdRat(gcd, q[t])
		}
		for _, t := range comp {
			q[t] = q[t].Div(gcd)
		}
	}
	return q, nil
}

// RepetitionVectorBig computes the smallest positive integer repetition
// vector q such that qt·ib = qt′·ob for every buffer b = (t, t′)
// (Section 2.2) with arbitrary-precision components. Each
// weakly-connected component is normalized independently to its smallest
// integer solution.
func (g *Graph) RepetitionVectorBig() ([]*big.Int, error) {
	q, err := g.repetition()
	if err != nil {
		return nil, err
	}
	qb := make([]*big.Int, len(q))
	for i, v := range q {
		qb[i] = v.Num() // v is integral
	}
	return qb, nil
}

// RepetitionVector computes the smallest repetition vector as int64
// components, returning ErrRepetitionOverflow if any component does not
// fit. It walks the graph in machine integers and repeats the walk on
// rat.Rat only when an intermediate value leaves int64. Most callers
// should use this, or Facts, which computes it once per graph;
// RepetitionVectorBig is the exact reference.
func (g *Graph) RepetitionVector() ([]int64, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g.repetitionVector()
}

// repetitionVector is RepetitionVector on a validated graph. It runs
// repetitionInt in one allocation that holds q and the scratch, and falls
// back to the rat.Rat reference only when repetitionInt overflows.
func (g *Graph) repetitionVector() ([]int64, error) {
	n := len(g.tasks)
	slab := make([]int64, 3*n+1+2*len(g.buffers))
	q := slab[:n:n]
	ok, err := g.repetitionInt(q, slab[n:])
	if err != nil {
		return nil, err
	}
	if ok {
		return q, nil
	}
	qr, err := g.repetitionRat()
	if err != nil {
		return nil, err
	}
	out := q
	for i, v := range qr {
		x, ok := v.Int64()
		if !ok {
			return nil, ErrRepetitionOverflow
		}
		out[i] = x
	}
	return out, nil
}

// repetitionInt computes the repetition vector of a validated graph in
// machine integers, walking the graph in repetitionRat's order. Instead of
// fractions it keeps every visited task of the current component at an
// integer multiple of its ratio to the root, and scales the visited part
// of the component whenever a buffer's ratio leaves the integers; at most
// 63 such scalings fit in int64. It writes q (len NumTasks) using scratch
// (len 2·NumTasks + 1 + 2·NumBuffers) and reports ok = false as soon as a
// value leaves int64, leaving q unspecified. Otherwise q, or the
// inconsistency error, is exactly what repetitionRat finds: both walks
// meet the buffers in the same order, and the integers are the fractions
// times one factor per component, which keeps every balance test's
// verdict.
func (g *Graph) repetitionInt(q, scratch []int64) (ok bool, err error) {
	n := len(g.tasks)
	// Undirected buffer incidence as one flat index, as in repetitionRat.
	start, rest := scratch[:n+1], scratch[n+1:]
	clear(start)
	for i := range g.buffers {
		b := &g.buffers[i]
		start[b.Src+1]++
		if b.Dst != b.Src {
			start[b.Dst+1]++
		}
	}
	for t := 0; t < n; t++ {
		start[t+1] += start[t]
	}
	inc, fill := rest[:start[n]], rest[start[n]:][:n]
	copy(fill, start[:n])
	for i := range g.buffers {
		b := &g.buffers[i]
		inc[fill[b.Src]] = int64(i)
		fill[b.Src]++
		if b.Dst != b.Src {
			inc[fill[b.Dst]] = int64(i)
			fill[b.Dst]++
		}
	}

	// q[t] = 0 marks task t unvisited. The queue takes over fill's
	// storage.
	clear(q)
	queue := fill[:0]
	for root := 0; root < n; root++ {
		if q[root] != 0 {
			continue
		}
		first := len(queue)
		q[root] = 1
		queue = append(queue, int64(root))
		for head := first; head < len(queue); head++ {
			u := queue[head]
			for _, bi := range inc[start[u]:start[u+1]] {
				b := &g.buffers[bi]
				ib, ob := b.TotalIn(), b.TotalOut()
				if b.Src == b.Dst {
					if ib != ob {
						return true, fmt.Errorf("%w: self-loop buffer %d has ib=%d ≠ ob=%d", ErrInconsistent, bi, ib, ob)
					}
					continue
				}
				// The buffer asks q[to] = q[u]·rn/rd.
				to, rn, rd := b.Dst, ib, ob
				if b.Src != TaskID(u) {
					to, rn, rd = b.Src, ob, ib
				}
				p, ok := rat.MulCheck(q[u], rn)
				if !ok {
					return false, nil
				}
				if q[to] != 0 {
					if c, ok := rat.MulCheck(q[to], rd); !ok {
						return false, nil
					} else if c != p {
						return true, fmt.Errorf("%w: cycle through buffer %d imbalanced", ErrInconsistent, bi)
					}
					continue
				}
				if p%rd != 0 {
					// Scale the visited part of the component so that
					// q[to] is an integer.
					f := rd / rat.Gcd(p, rd)
					for _, t := range queue[first:] {
						if q[t], ok = rat.MulCheck(q[t], f); !ok {
							return false, nil
						}
					}
					if p, ok = rat.MulCheck(p, f); !ok {
						return false, nil
					}
				}
				q[to] = p / rd
				queue = append(queue, int64(to))
			}
		}
		// The smallest positive integer vector of the component.
		comp := queue[first:]
		var gcd int64
		for _, t := range comp {
			if gcd = rat.Gcd(gcd, q[t]); gcd == 1 {
				break
			}
		}
		if gcd > 1 {
			for _, t := range comp {
				q[t] /= gcd
			}
		}
	}
	return true, nil
}

// Consistent reports whether the graph admits a repetition vector.
func (g *Graph) Consistent() bool {
	_, err := g.repetition()
	return err == nil
}

// SumRepetition returns Σt qt as a big.Int (the complexity measure used in
// Tables 1 and 2 of the paper).
func (g *Graph) SumRepetition() (*big.Int, error) {
	q, err := g.repetition()
	if err != nil {
		return nil, err
	}
	s := new(big.Int)
	for _, v := range q {
		s.Add(s, v.Num())
	}
	return s, nil
}
