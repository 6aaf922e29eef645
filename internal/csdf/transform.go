package csdf

import (
	"errors"
	"fmt"
)

// ErrNoCapacities is returned by WithCapacities when no buffer carries a
// capacity bound.
var ErrNoCapacities = errors.New("csdf: no buffer has a capacity bound")

// WithCapacities returns a new graph in which every capacity bound is made
// analytically effective through the classical reverse-buffer encoding: for
// each buffer b = (t, t′) with Capacity C > 0, a reverse buffer
// b′ = (t′, t) is added with in_{b′} = out_b, out_{b′} = in_b and
// M0(b′) = C − M0(b).
//
// The reverse buffer counts the free space of b: the producer t claims
// inb(p) space tokens before phase tp starts (out_{b′} = in_b, consumed at
// start), and the consumer t′ releases outb(p′) space tokens when phase
// t′p′ completes (in_{b′} = out_b, produced at end). A marking of b plus
// its mirror therefore always sums to C, which is exactly the back-pressure
// semantics of a bounded FIFO. Capacity fields are cleared on the result so
// the transform is idempotent in effect.
//
// This is the construction used to produce the "fixed buffer size" rows of
// Table 2 of the paper.
func (g *Graph) WithCapacities() (*Graph, error) {
	bounded := 0
	for i := range g.buffers {
		if g.buffers[i].Capacity > 0 {
			bounded++
		}
	}
	if bounded == 0 {
		return nil, ErrNoCapacities
	}
	out := g.Clone()
	out.Name = g.Name + "+capacities"
	for i := range g.buffers {
		b := &g.buffers[i]
		if b.Capacity <= 0 {
			continue
		}
		rev := out.AddBuffer(
			b.Name+"~rev",
			b.Dst, b.Src,
			b.Out, b.In,
			b.Capacity-b.Initial,
		)
		_ = rev
	}
	for i := range out.buffers {
		out.buffers[i].Capacity = 0
	}
	return out, nil
}

// ScaleCapacities returns a copy of g whose every buffer capacity is set to
// ceil(factor · minimal-feasible-marking surrogate): concretely, capacity
// of each buffer is set to scale·(ib+ob) + M0, a standard safe starting
// size used by buffer-sizing searches. scale must be ≥ 1.
func (g *Graph) ScaleCapacities(scale int64) *Graph {
	out := g.Clone()
	for i := range out.buffers {
		b := &out.buffers[i]
		b.Capacity = scale*(b.TotalIn()+b.TotalOut()) + b.Initial
	}
	return out
}

// ScaleDurations returns a copy of g with every phase duration multiplied
// by m ≥ 1. Every period scales by exactly m while the schedules keep their
// shape, so large multipliers exercise the solvers' arithmetic on the same
// work.
func (g *Graph) ScaleDurations(m int64) *Graph {
	out := g.Clone()
	for i := range out.tasks {
		for p := range out.tasks[i].Durations {
			out.tasks[i].Durations[p] *= m
		}
	}
	return out
}

// Unbounded returns a copy of g with all capacity bounds removed.
func (g *Graph) Unbounded() *Graph {
	out := g.Clone()
	for i := range out.buffers {
		out.buffers[i].Capacity = 0
	}
	return out
}

// NormalizePhases returns a copy of g in which every task whose duration
// and rate vectors are all uniform repetitions of a shorter pattern is
// reduced to that pattern. This is a safe structural simplification: a task
// whose per-phase behaviour repeats k times within one declared iteration
// behaves identically with the shorter phase list and a repetition count k
// times larger, and throughput analyses are invariant to it. Tasks
// referenced by buffers are rewritten consistently.
//
// NormalizePhases is conservative: a task is only reduced when all its
// adjacent rate vectors share the same repetition structure.
func (g *Graph) NormalizePhases() *Graph {
	out := g.Clone()
	for ti := range out.tasks {
		t := &out.tasks[ti]
		n := t.Phases()
		if n <= 1 {
			continue
		}
		// Find the smallest period d dividing n such that durations and
		// every adjacent rate vector are d-periodic.
		for _, d := range divisorsAsc(n) {
			if d == n {
				break
			}
			if !isPeriodic(t.Durations, d) {
				continue
			}
			ok := true
			for bi := range out.buffers {
				b := &out.buffers[bi]
				if b.Src == TaskID(ti) && !isPeriodic(b.In, d) {
					ok = false
					break
				}
				if b.Dst == TaskID(ti) && !isPeriodic(b.Out, d) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			t.Durations = append([]int64(nil), t.Durations[:d]...)
			for bi := range out.buffers {
				b := &out.buffers[bi]
				if b.Src == TaskID(ti) {
					b.In = append([]int64(nil), b.In[:d]...)
				}
				if b.Dst == TaskID(ti) {
					b.Out = append([]int64(nil), b.Out[:d]...)
				}
			}
			break
		}
	}
	return out
}

func divisorsAsc(n int) []int {
	var ds []int
	for d := 1; d <= n; d++ {
		if n%d == 0 {
			ds = append(ds, d)
		}
	}
	return ds
}

func isPeriodic(v []int64, d int) bool {
	for i := d; i < len(v); i++ {
		if v[i] != v[i-d] {
			return false
		}
	}
	return true
}

// Stats summarizes a graph for reporting (the columns of Tables 1 and 2).
type Stats struct {
	Tasks       int
	Buffers     int
	TotalPhases int
	MaxPhases   int
	SumQ        string // Σt qt, decimal (may exceed int64)
	IsSDF       bool
}

// ComputeStats returns summary statistics; SumQ is "-" for inconsistent
// graphs.
func (g *Graph) ComputeStats() Stats {
	s := Stats{
		Tasks:   g.NumTasks(),
		Buffers: g.NumBuffers(),
		IsSDF:   g.IsSDF(),
		SumQ:    "-",
	}
	for i := range g.tasks {
		p := g.tasks[i].Phases()
		s.TotalPhases += p
		if p > s.MaxPhases {
			s.MaxPhases = p
		}
	}
	if sq, err := g.SumRepetition(); err == nil {
		s.SumQ = sq.String()
	}
	return s
}

func (s Stats) String() string {
	kind := "CSDFG"
	if s.IsSDF {
		kind = "SDFG"
	}
	return fmt.Sprintf("%s: %d tasks, %d buffers, %d phases (max %d), Σq=%s",
		kind, s.Tasks, s.Buffers, s.TotalPhases, s.MaxPhases, s.SumQ)
}
