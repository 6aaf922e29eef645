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
// cannot happen here and the common case allocates no big integers.
func (g *Graph) repetition() ([]rat.Rat, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
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
// fit. Most callers should use this; RepetitionVectorBig is the exact
// fallback.
func (g *Graph) RepetitionVector() ([]int64, error) {
	q, err := g.repetition()
	if err != nil {
		return nil, err
	}
	out := make([]int64, len(q))
	for i, v := range q {
		x, ok := v.Int64()
		if !ok {
			return nil, ErrRepetitionOverflow
		}
		out[i] = x
	}
	return out, nil
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
