package gen

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"kiter/internal/csdf"
	"kiter/internal/kperiodic"
	"kiter/internal/rat"
)

// Profile parameterizes the random graph generators. Graphs are consistent
// by construction: rates on every buffer are derived from a pre-assigned
// repetition vector, and liveness is certified by the existence of a
// 1-periodic schedule before a graph is returned.
type Profile struct {
	Name string
	Seed int64
	// Tasks is the task count; Buffers the approximate buffer count
	// (at least Tasks−1; a spanning tree is always present).
	Tasks   int
	Buffers int
	// QLadder is the pool repetition values are drawn from. Values
	// sharing small prime factors keep the derived rates moderate.
	QLadder []int64
	// MaxPhases bounds ϕ(t) (1 = SDF); MaxDuration bounds phase durations.
	MaxPhases   int
	MaxDuration int64
	// RateFactor scales the tokens exchanged per graph iteration on each
	// buffer (1 = minimum, the lcm of the endpoint repetitions).
	RateFactor int64
	// BackEdgeFrac is the fraction of extra buffers directed against the
	// topological order (feedback); such buffers receive one graph
	// iteration's worth of initial tokens, scaled by TokensSlack.
	BackEdgeFrac float64
	TokensSlack  int64
	// Ring forces a Hamiltonian ring backbone (strong connectivity)
	// instead of a spanning tree.
	Ring bool
	// SmoothQ assigns repetition values by a ±1 random walk over the
	// (sorted) ladder along the ring order, so adjacent tasks have close
	// repetition counts — the gradual rate changes of real pipelines.
	// Without it circuits can mix coprime repetition counts, which makes
	// K-Iter's periodicity vector explode (q̄t = qt/gcd becomes huge).
	SmoothQ bool
	// MaxSpan, when positive and Ring is set, limits extra edges to at
	// most this many positions along the ring, keeping feedback circuits
	// local.
	MaxSpan int
}

// ErrGenerate reports that no live graph was found within the retry budget.
var ErrGenerate = errors.New("gen: could not generate a live graph")

// Random generates a consistent, live CSDF graph from the profile. The
// same profile (including Seed) always yields the same graph.
func Random(p Profile) (*csdf.Graph, error) {
	rng := rand.New(rand.NewSource(p.Seed))
	if p.Tasks < 1 {
		return nil, fmt.Errorf("gen: profile needs at least one task")
	}
	if p.Tasks == 1 && p.Buffers > 0 {
		// Every buffer joins two distinct tasks, so none can be placed.
		return nil, fmt.Errorf("gen: profile asks for %d buffers on one task", p.Buffers)
	}
	if p.MaxPhases < 1 {
		p.MaxPhases = 1
	}
	if p.MaxDuration < 1 {
		p.MaxDuration = 1
	}
	if p.RateFactor < 1 {
		p.RateFactor = 1
	}
	if p.TokensSlack < 1 {
		p.TokensSlack = 1
	}
	if len(p.QLadder) == 0 {
		p.QLadder = []int64{1, 2, 3, 4, 6, 8, 12}
	}
	for attempt := 0; attempt < 10; attempt++ {
		g, err := generate(p, rng, int64(attempt))
		if err != nil {
			continue
		}
		if certifyLive(g) {
			return g, nil
		}
	}
	return nil, ErrGenerate
}

// certifyLive checks that a 1-periodic schedule exists, which is a
// sufficient liveness condition.
func certifyLive(g *csdf.Graph) bool {
	_, err := kperiodic.Evaluate1(g, kperiodic.Options{SkipCertify: true})
	return err == nil
}

func generate(p Profile, rng *rand.Rand, attempt int64) (*csdf.Graph, error) {
	g := csdf.NewGraph(p.Name)
	n := p.Tasks
	// Random topological order.
	order := rng.Perm(n)
	pos := make([]int, n)
	for i, t := range order {
		pos[t] = i
	}
	// Assign repetition values along the ring order, then create tasks in
	// ID order. SmoothQ follows a jittered triangle wave over the sorted
	// ladder: adjacent tasks (including across the ring wrap) sit on
	// adjacent rungs, and both the bottom and the top rung are covered so
	// normalization cannot collapse the magnitudes.
	q := make([]int64, n)
	ladder := append([]int64(nil), p.QLadder...)
	sortInt64(ladder)
	for i := 0; i < n; i++ {
		t := order[i]
		if p.SmoothQ && n > 1 {
			x := float64(i) / float64(n-1) // 0 ... 1 around the ring
			tri := 1 - abs64(2*x-1)        // 0 -> 1 -> 0
			rung := int(tri*float64(len(ladder)-1) + 0.5)
			rung += rng.Intn(3) - 1
			if rung < 0 {
				rung = 0
			}
			if rung >= len(ladder) {
				rung = len(ladder) - 1
			}
			// Pin the extremes so the ladder is always fully covered.
			if i == 0 || i == n-1 {
				rung = 0
			}
			if i == (n-1)/2 {
				rung = len(ladder) - 1
			}
			q[t] = ladder[rung]
		} else {
			q[t] = ladder[rng.Intn(len(ladder))]
		}
	}
	for t := 0; t < n; t++ {
		phases := 1 + rng.Intn(p.MaxPhases)
		durs := make([]int64, phases)
		for j := range durs {
			durs[j] = 1 + rng.Int63n(p.MaxDuration)
		}
		g.AddTask(fmt.Sprintf("t%d", t), durs)
	}
	tokensFor := func(src csdf.TaskID, ib int64) int64 {
		// One graph iteration's worth of production, scaled; the retry
		// counter raises the slack when liveness certification fails.
		return (p.TokensSlack + attempt) * q[src] * ib
	}
	addBufferMul := func(src, dst csdf.TaskID, back bool, mul int64) error {

		lcm, ok := rat.Lcm(q[src], q[dst])
		if !ok {
			return &rat.ErrOverflow{Op: "rate lcm"}
		}
		x, ok := rat.MulCheck(lcm, p.RateFactor)
		if !ok {
			return &rat.ErrOverflow{Op: "rate scale"}
		}
		ib, ob := x/q[src], x/q[dst]
		in := splitRates(rng, ib, g.Task(src).Phases())
		out := splitRates(rng, ob, g.Task(dst).Phases())
		var m0 int64
		if back {
			m0 = mul * tokensFor(src, ib)
		}
		g.AddBuffer(fmt.Sprintf("b%d", g.NumBuffers()), src, dst, in, out, m0)
		return nil
	}
	if p.Ring {
		for i := 0; i < n; i++ {
			src := csdf.TaskID(order[i])
			dst := csdf.TaskID(order[(i+1)%n])
			if n == 1 {
				break
			}
			// The ring-closing edge gets generous extra tokens so the
			// global circuit never becomes the bottleneck; local feedback
			// is what the benchmarks are about.
			if err := addBufferMul(src, dst, i == n-1, 4); err != nil {
				return nil, err
			}
		}
	} else {
		for i := 1; i < n; i++ {
			parent := order[rng.Intn(i)]
			if err := addBufferMul(csdf.TaskID(parent), csdf.TaskID(order[i]), false, 1); err != nil {
				return nil, err
			}
		}
	}
	for g.NumBuffers() < p.Buffers {
		var src, dst csdf.TaskID
		back := rng.Float64() < p.BackEdgeFrac
		if p.Ring && p.MaxSpan > 0 {
			// Local edges only: both endpoints within MaxSpan ring
			// positions, so feedback circuits stay between tasks with
			// close repetition counts.
			i := rng.Intn(n)
			span := 1 + rng.Intn(p.MaxSpan)
			j := i + span
			if j >= n {
				continue // skip wrapping spans; the ring edge covers them
			}
			if back {
				src, dst = csdf.TaskID(order[j]), csdf.TaskID(order[i])
			} else {
				src, dst = csdf.TaskID(order[i]), csdf.TaskID(order[j])
			}
		} else {
			a := csdf.TaskID(rng.Intn(n))
			b := csdf.TaskID(rng.Intn(n))
			if a == b {
				continue
			}
			src, dst = a, b
			if pos[src] > pos[dst] != back {
				src, dst = dst, src
			}
		}
		if err := addBufferMul(src, dst, back, 1); err != nil {
			return nil, err
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

func sortInt64(v []int64) {
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
}

func abs64(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// splitRates distributes total tokens over phases, each part non-negative,
// keeping the sum exact.
func splitRates(rng *rand.Rand, total int64, phases int) []int64 {
	out := make([]int64, phases)
	if phases == 1 {
		out[0] = total
		return out
	}
	remaining := total
	for i := 0; i < phases-1; i++ {
		// Bias towards an even split with occasional zeros.
		mean := remaining / int64(phases-i)
		var v int64
		if mean > 0 {
			v = rng.Int63n(2*mean + 1)
		}
		if v > remaining {
			v = remaining
		}
		out[i] = v
		remaining -= v
	}
	out[phases-1] = remaining
	return out
}

// RandomSmall generates a small strongly-connected live CSDF graph for
// property-based cross-validation against symbolic execution. Deterministic
// in seed.
func RandomSmall(seed int64) (*csdf.Graph, error) {
	rng := rand.New(rand.NewSource(seed))
	return Random(Profile{
		Name:         fmt.Sprintf("small-%d", seed),
		Seed:         rng.Int63(),
		Tasks:        2 + rng.Intn(4),
		Buffers:      3 + rng.Intn(4),
		QLadder:      []int64{1, 2, 3, 4},
		MaxPhases:    3,
		MaxDuration:  3,
		RateFactor:   1 + rng.Int63n(2),
		BackEdgeFrac: 0.4,
		TokensSlack:  1,
		Ring:         true,
	})
}
