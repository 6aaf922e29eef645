package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"sync"

	"kiter/internal/bench"
	"kiter/internal/csdf"
	"kiter/internal/gen"
	"kiter/internal/sdf3x"
)

// The four workloads. Every one is a closed loop: kiterd's callers
// (compilers, design-space-exploration tools) wait for each answer.
const (
	analyzeCold = "analyze-cold"
	analyzeWarm = "analyze-warm"
	sweepDSE    = "sweep-dse"
	fleetMixed  = "fleet-mixed"
)

var workloadNames = []string{analyzeCold, analyzeWarm, sweepDSE, fleetMixed}

// A request's graph is a base graph with every duration multiplied by the
// same factor, its multiplier. Uniform scaling keeps the fingerprints of
// different multipliers apart while the solver work stays exactly that of
// the base: K-Iter takes the same rounds and symbolic execution fires the
// same events, only the period scales. (Offsetting single durations
// instead makes the durations incommensurate, and symbolic execution then
// runs into its budget on graphs where the base takes milliseconds.)
const (
	// warmVariants is the warm pool size per analyze base, multipliers
	// 1…warmVariants: 45 bases × 8 = 360 fingerprints, under a tenth of
	// kiterd's 4096-entry memo cache.
	warmVariants = 8
	// coldOffsets bounds the seed-derived shift of cold multipliers, which
	// start above the warm ones and grow with each base's occurrence count.
	// Multipliers stay in the low thousands, where arithmetic on the scaled
	// durations costs what it costs on the base.
	coldOffsets = 512

	// A sweep crosses sweepDurations values of one task's duration with
	// sweepTokens initial-token values of one buffer: 32 scenarios.
	sweepDurations = 8
	sweepTokens    = 4
	// Within a block of sweepBlock consecutive sweeps of a base, each
	// sweep's duration range starts sweepShift (half its width) above the
	// previous one's, so consecutive sweeps share half their scenarios. The
	// next block repeats the same scenarios at the next multiplier.
	sweepShift = sweepDurations / 2
	sweepBlock = 16
	// sweepOffsets bounds the seed-derived shift of a base's sweep index.
	sweepOffsets = 1024
)

// base is one base graph, prepared for rendering: tasks and buffers carry
// unique names and the compact JSON is pre-split around every duration, so
// a multiplier renders by concatenation.
type base struct {
	name  string
	group string
	g     *csdf.Graph // named copy of the base
	vals  []int64     // durations in template order
	segs  [][]byte    // JSON split around each duration: len(vals)+1
}

// sentinel marks duration i in the template render; far above any duration.
func sentinel(i int) int64 { return 900_000_000_000 + int64(i) }

func newBase(name, group string, src *csdf.Graph) (*base, error) {
	g := src.Clone()
	g.Name = name
	used := map[string]bool{}
	for i := range g.Tasks() {
		t := g.Task(csdf.TaskID(i))
		if t.Name == "" || used[t.Name] {
			t.Name = fmt.Sprintf("t%d", i)
		}
		used[t.Name] = true
	}
	used = map[string]bool{}
	for i := range g.Buffers() {
		b := g.Buffer(csdf.BufferID(i))
		if b.Name == "" || used[b.Name] {
			b.Name = fmt.Sprintf("b%d", i)
		}
		used[b.Name] = true
	}
	var vals []int64
	var edits []csdf.Edit
	for _, t := range g.Tasks() {
		for p, d := range t.Durations {
			edits = append(edits, csdf.SetDuration(t.ID, p+1, sentinel(len(vals))))
			vals = append(vals, d)
		}
	}
	tg, err := g.CloneWithEdits(edits...)
	if err != nil {
		return nil, err
	}
	var buf, js bytes.Buffer
	if err := sdf3x.WriteJSON(&buf, tg); err != nil {
		return nil, err
	}
	// Compacted, the way a program client sends it.
	if err := json.Compact(&js, buf.Bytes()); err != nil {
		return nil, err
	}
	rest := js.Bytes()
	segs := make([][]byte, 0, len(vals)+1)
	for i := range vals {
		mark := []byte(strconv.FormatInt(sentinel(i), 10))
		if bytes.Count(rest, mark) != 1 {
			return nil, fmt.Errorf("%s: duration %d does not appear exactly once in the template", name, i)
		}
		head, tail, _ := bytes.Cut(rest, mark)
		segs = append(segs, head)
		rest = tail
	}
	segs = append(segs, rest)
	return &base{name: name, group: group, g: g, vals: vals, segs: segs}, nil
}

// render returns the base as a bare-graph /analyze body with every
// duration multiplied by m.
func (b *base) render(m uint64) []byte {
	size := len(b.segs[len(b.vals)])
	for _, s := range b.segs[:len(b.vals)] {
		size += len(s) + 20
	}
	out := make([]byte, 0, size)
	for i, seg := range b.segs[:len(b.vals)] {
		out = append(out, seg...)
		out = strconv.AppendInt(out, b.vals[i]*int64(m), 10)
	}
	return append(out, b.segs[len(b.vals)]...)
}

// analyzeBases builds the 45 analyze bases in three groups, weighted 2:1:1
// by the request schedule:
//   - table1: the Table 1 SDF categories (ActualDSP, MimicDSP(24),
//     LgHSDF(6), LgTransient(3)) plus VideoPipeline and Figure 2;
//   - multiround: KIterChain 4/8/16, where K-Iter needs many rounds;
//   - table2: the Table 2 stand-in BlackScholes and its fixed-buffer
//     variant.
//
// The other Table 2 stand-ins — Pdetect, JPEG2000 and the fixed-buffer
// JPEG2000 and Pdetect — are left out. Their symbolic-execution contestant
// runs 0.4 s (JPEG2000+buffers) to 11 s (Pdetect) before it answers or
// exhausts its budget. With both workers busy every race is starved and
// runs its contestants one at a time, symbolic execution first in about 3%
// of races; each such race stalls its request that long, and the few
// stalls a run happens to draw move its throughput and CPU time by ±15%.
var analyzeBases = sync.OnceValues(func() ([]*base, error) {
	type grouped struct {
		group string
		g     *csdf.Graph
	}
	var src []grouped
	for _, s := range bench.Table1Suites(24, 6, 3, 1) {
		for _, g := range s.Graphs {
			src = append(src, grouped{"table1", g})
		}
	}
	src = append(src, grouped{"table1", gen.VideoPipeline()}, grouped{"table1", gen.Figure2()})
	for _, n := range []int{4, 8, 16} {
		src = append(src, grouped{"multiround", gen.KIterChain(n)})
	}
	bs, err := blackScholes()
	if err != nil {
		return nil, err
	}
	bsBounded, err := gen.IndustrialBounded(bs.spec)
	if err != nil {
		return nil, err
	}
	src = append(src, grouped{"table2", bs.g}, grouped{"table2", bsBounded})
	out := make([]*base, len(src))
	for i, s := range src {
		b, err := newBase(s.g.Name, s.group, s.g)
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
})

type industrial struct {
	spec gen.IndustrialSpec
	g    *csdf.Graph
}

// blackScholes builds the unbounded BlackScholes stand-in of Table 2.
func blackScholes() (industrial, error) {
	for _, spec := range gen.IndustrialSpecs() {
		if spec.Name == "BlackScholes" {
			g, err := gen.Industrial(spec)
			return industrial{spec, g}, err
		}
	}
	return industrial{}, fmt.Errorf("no BlackScholes spec")
}

// groupRepeats is how often each base of a group appears in one schedule
// cycle: 40 table1 bases × 6 = 240, 3 multiround × 40 = 120 and 2 table2 ×
// 60 = 120 slots, the 2:1:1 group weighting.
var groupRepeats = map[string]int{"table1": 6, "multiround": 40, "table2": 60}

// sweepBase is one sweep-dse base with its two swept sites: one task
// phase's duration and the initial tokens of the buffer holding the fewest
// positive tokens (the tightest feedback), or of the first buffer when none
// holds any.
type sweepBase struct {
	*base
	task, buffer []byte // JSON-quoted names
	phase        int
	d0, m0       int64 // base duration and tokens at the swept sites
}

// sweepSites names the swept task phase of each sweep base: VideoPipeline's
// motion-search phase as in examples/videopipeline, and for the others a
// task whose duration range keeps symbolic execution within tens of
// milliseconds (on BlackScholes, sweeping the first task's duration makes
// it exhaust its budget on a quarter of the scenarios).
var sweepSites = []struct {
	task  string
	phase int
}{{"motion-est", 2}, {"fir2", 1}, {"idct", 1}, {"c0_s0", 1}, {"t30", 1}}

// sweepBases builds the sweep-dse bases: VideoPipeline, SampleRateConverter,
// H263Decoder, SatelliteReceiver and BlackScholes.
var sweepBases = sync.OnceValues(func() ([]*sweepBase, error) {
	bs, err := blackScholes()
	if err != nil {
		return nil, err
	}
	src := []*csdf.Graph{gen.VideoPipeline(), gen.SampleRateConverter(), gen.H263Decoder(), gen.SatelliteReceiver(), bs.g}
	out := make([]*sweepBase, len(src))
	for i, s := range src {
		b, err := newBase(s.Name, "sweep", s)
		if err != nil {
			return nil, err
		}
		site := sweepSites[i]
		t, ok := b.g.TaskByName(site.task)
		if !ok {
			return nil, fmt.Errorf("%s has no task %q", s.Name, site.task)
		}
		buf := b.g.Buffer(0)
		for j := range b.g.Buffers() {
			c := b.g.Buffer(csdf.BufferID(j))
			if c.Initial > 0 && (buf.Initial == 0 || c.Initial < buf.Initial) {
				buf = c
			}
		}
		task, _ := json.Marshal(site.task) // marshaling a string cannot fail
		bufName, _ := json.Marshal(buf.Name)
		out[i] = &sweepBase{base: b, task: task, buffer: bufName, phase: site.phase,
			d0: b.g.Task(t).Durations[site.phase-1], m0: buf.Initial}
	}
	return out, nil
})

// render returns the /sweep body of the base's k-th sweep: base durations
// times the block's multiplier m, the swept duration over sweepDurations
// multiples of m, and the tokens over sweepTokens values. Every scenario is
// thus a small-integer scenario with all durations scaled by m.
func (s *sweepBase) render(k uint64) []byte {
	m := int64(1 + k/sweepBlock)
	from := m * (s.d0 + int64(k%sweepBlock)*sweepShift)
	return fmt.Appendf(nil, `{"base":%s,"parameters":[`+
		`{"name":"d","target":{"kind":"duration","task":%s,"phase":%d},"range":{"from":%d,"to":%d,"step":%d}},`+
		`{"name":"m","target":{"kind":"initial","buffer":%s},"range":{"from":%d,"to":%d}}]}`,
		s.base.render(uint64(m)), s.task, s.phase, from, from+m*(sweepDurations-1), m, s.buffer, s.m0, s.m0+sweepTokens-1)
}

// request is one generated request: a pure function of the workload seed
// and the sequence number.
type request struct {
	seq     uint64
	path    string // "/analyze" or "/sweep"
	body    []byte
	base    int    // index into the workload's bases or sweep bases
	variant uint64 // analyze: duration multiplier; sweep: the base's sweep index
	warm    bool
}

// analyses is the number of analyses the request asks for.
func (r request) analyses() int {
	if r.path == "/sweep" {
		return sweepDurations * sweepTokens
	}
	return 1
}

// workload generates one workload's requests from a seed. Bases follow a
// schedule cycle that is reshuffled per cycle from the seed, so every run
// sends the exact group mix while the order varies with the seed.
type workload struct {
	name   string
	seed   int64
	bases  []*base
	sweeps []*sweepBase
	cycle  []int // base index per schedule position, unshuffled
	// repeats[b] counts base b's positions in one cycle.
	repeats []uint64
	// coldOffset shifts cold multipliers by a seed-derived amount so
	// different seeds send different cold graphs.
	coldOffset uint64

	mu     sync.Mutex
	cycles map[uint64]schedule
}

// schedule is one reshuffled cycle: the base at each position and how many
// earlier positions of the cycle hold the same base.
type schedule struct {
	base, rank []int
}

func newWorkload(name string, seed int64) (*workload, error) {
	w := &workload{name: name, seed: seed, cycles: map[uint64]schedule{}}
	switch name {
	case analyzeCold, analyzeWarm, fleetMixed:
		bases, err := analyzeBases()
		if err != nil {
			return nil, err
		}
		w.bases = bases
		for i, b := range bases {
			for range groupRepeats[b.group] {
				w.cycle = append(w.cycle, i)
			}
			w.repeats = append(w.repeats, uint64(groupRepeats[b.group]))
		}
		w.coldOffset = mix(seed, 0) % coldOffsets
	case sweepDSE:
		sweeps, err := sweepBases()
		if err != nil {
			return nil, err
		}
		w.sweeps = sweeps
		for i := range sweeps {
			w.cycle = append(w.cycle, i)
			w.repeats = append(w.repeats, 1)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	return w, nil
}

// mix is splitmix64 over (seed, x): a stateless per-item random source.
func mix(seed int64, x uint64) uint64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + x + 0x632be59bd9b4e019
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// scheduled returns the base at sequence number seq and how many earlier
// sequence numbers were scheduled on the same base.
func (w *workload) scheduled(seq uint64) (int, uint64) {
	n := uint64(len(w.cycle))
	c := seq / n
	w.mu.Lock()
	s, ok := w.cycles[c]
	if !ok {
		s.base = append([]int(nil), w.cycle...)
		rng := rand.New(rand.NewSource(int64(mix(w.seed, c))))
		rng.Shuffle(len(s.base), func(i, j int) { s.base[i], s.base[j] = s.base[j], s.base[i] })
		s.rank = make([]int, len(s.base))
		seen := make([]int, len(w.repeats))
		for i, b := range s.base {
			s.rank[i] = seen[b]
			seen[b]++
		}
		w.cycles[c] = s
	}
	w.mu.Unlock()
	b := s.base[seq%n]
	return b, c*w.repeats[b] + uint64(s.rank[seq%n])
}

// request returns the request at sequence number seq. Safe for concurrent
// use.
func (w *workload) request(seq uint64) request {
	bi, occurrence := w.scheduled(seq)
	if w.sweeps != nil {
		k := mix(w.seed, uint64(bi)+1)%sweepOffsets + occurrence
		return request{seq: seq, path: "/sweep", body: w.sweeps[bi].render(k), base: bi, variant: k}
	}
	warm := w.name == analyzeWarm || (w.name == fleetMixed && seq%2 == 1)
	m := 1 + mix(w.seed, seq)%warmVariants
	if !warm {
		m = warmVariants + 1 + w.coldOffset + occurrence
	}
	return request{seq: seq, path: "/analyze", body: w.bases[bi].render(m), base: bi, variant: m, warm: warm}
}

// warmPool returns every warm body, for priming the memo cache; nil for
// workloads without warm requests.
func (w *workload) warmPool() []request {
	if w.name != analyzeWarm && w.name != fleetMixed {
		return nil
	}
	var out []request
	for bi, b := range w.bases {
		for m := uint64(1); m <= warmVariants; m++ {
			out = append(out, request{path: "/analyze", body: b.render(m), base: bi, variant: m, warm: true})
		}
	}
	return out
}
