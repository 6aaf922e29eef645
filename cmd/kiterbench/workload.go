package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"kiter/internal/csdf"
	"kiter/internal/sdf3x"
)

// sentinelDur is the duration stamped on task t0 of every template graph.
// Bodies are rendered by splicing a per-request duration into the one spot
// where this literal appears, so generating a cold request costs two copies
// and an itoa instead of a graph build + JSON encode on the hot path.
const sentinelDur = 86400077

// bucketTasks maps workload size buckets onto ring lengths at the
// task-count boundaries tiny ≤4, small ≤16, medium ≤64 and large >64, so
// a mixed run spans small to large graphs.
var bucketTasks = map[string]int{
	"tiny":   4,
	"small":  16,
	"medium": 64,
	"large":  128,
}

// ringGraph builds a homogeneous ring of n named unit-rate tasks t0…t(n-1)
// with n tokens on the closing arc. All durations are 10 except t0, which
// carries d0: the single knob that makes request fingerprints distinct
// without changing the solver's work per request.
func ringGraph(n int, d0 int64) *csdf.Graph {
	g := csdf.NewGraph(fmt.Sprintf("bench-ring-%d", n))
	ids := make([]csdf.TaskID, n)
	for i := range ids {
		d := int64(10)
		if i == 0 {
			d = d0
		}
		ids[i] = g.AddSDFTask(fmt.Sprintf("t%d", i), d)
	}
	for i := 0; i < n-1; i++ {
		g.AddSDFBuffer(fmt.Sprintf("b%d", i), ids[i], ids[i+1], 1, 1, 0)
	}
	g.AddSDFBuffer("loop", ids[n-1], ids[0], 1, 1, int64(n))
	return g
}

// bodyTemplate holds the pre-rendered request bodies for one size bucket,
// split at the sentinel duration.
type bodyTemplate struct {
	bucket                  string
	analyzePre, analyzePost []byte
	sweepPre, sweepPost     []byte
}

func newBodyTemplate(bucket string, tasks, sweepPoints int) (*bodyTemplate, error) {
	var buf bytes.Buffer
	if err := sdf3x.WriteJSON(&buf, ringGraph(tasks, sentinelDur)); err != nil {
		return nil, err
	}
	graph := bytes.TrimSpace(buf.Bytes())
	sentinel := []byte(strconv.Itoa(sentinelDur))
	parts := bytes.Split(graph, sentinel)
	if len(parts) != 2 {
		return nil, fmt.Errorf("sentinel duration appears %d times in %s template, want 1", len(parts)-1, bucket)
	}
	// The sweep spec varies t1's duration over sweepPoints values, so one
	// /sweep request fans out into sweepPoints scenario solves server-side.
	sweepTail := fmt.Sprintf(`,"parameters":[{"name":"d1","target":{"kind":"duration","task":"t1"},"range":{"from":10,"to":%d}}]}`,
		10+int64(sweepPoints)-1)
	return &bodyTemplate{
		bucket:      bucket,
		analyzePre:  parts[0],
		analyzePost: append([]byte(nil), parts[1]...),
		sweepPre:    append([]byte(`{"base":`), parts[0]...),
		sweepPost:   append(append([]byte(nil), parts[1]...), sweepTail...),
	}, nil
}

func render(pre, post []byte, d0 int64) []byte {
	d := strconv.AppendInt(nil, d0, 10)
	out := make([]byte, 0, len(pre)+len(d)+len(post))
	out = append(out, pre...)
	out = append(out, d...)
	return append(out, post...)
}

func (t *bodyTemplate) analyzeBody(d0 int64) []byte { return render(t.analyzePre, t.analyzePost, d0) }
func (t *bodyTemplate) sweepBody(d0 int64) []byte   { return render(t.sweepPre, t.sweepPost, d0) }

// weighted is one name=weight entry of a -mix or -sizes flag.
type weighted struct {
	name   string
	weight int
}

// parseWeights parses "a=3,b=1" against a set of allowed names, dropping
// zero-weight entries so "-sizes tiny=1,large=0" reads naturally.
func parseWeights(s string, allowed func(string) bool) ([]weighted, error) {
	var out []weighted
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, found := strings.Cut(part, "=")
		w := 1
		if found {
			var err error
			if w, err = strconv.Atoi(strings.TrimSpace(val)); err != nil || w < 0 {
				return nil, fmt.Errorf("weight %q: want name=nonNegativeInt", part)
			}
		}
		name = strings.TrimSpace(name)
		if !allowed(name) {
			return nil, fmt.Errorf("unknown workload component %q", name)
		}
		if w > 0 {
			out = append(out, weighted{name, w})
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no non-zero weights in %q", s)
	}
	return out, nil
}

func pickWeighted(rng *rand.Rand, ws []weighted) string {
	total := 0
	for _, w := range ws {
		total += w.weight
	}
	n := rng.Intn(total)
	for _, w := range ws {
		if n < w.weight {
			return w.name
		}
		n -= w.weight
	}
	return ws[len(ws)-1].name
}

// benchReq is one generated request: the endpoint path, a ready-to-send
// body, and whether it came from the warm pool (expected cache hit after
// the pool's first pass).
type benchReq struct {
	endpoint string // "/analyze" or "/sweep"
	bucket   string
	warm     bool
	body     []byte
}

// workload generates the request mix. Warm requests draw byte-identical
// bodies from a fixed pool, so after one pass every warm fingerprint is
// resident in the server's memo cache; cold requests stamp a monotonically
// increasing duration, so each is a guaranteed miss. -warm-ratio therefore
// dials the steady-state cache-hit ratio directly.
type workload struct {
	mu        sync.Mutex
	rng       *rand.Rand
	coldSeq   atomic.Int64
	mix       []weighted
	sizes     []weighted
	warmRatio float64
	templates map[string]*bodyTemplate
	// warmAnalyze[bucket][i] and warmSweep[bucket][i] are the pre-rendered
	// warm pools.
	warmAnalyze map[string][][]byte
	warmSweep   map[string][][]byte
}

func newWorkload(mix, sizes string, warmRatio float64, warmPool, sweepPoints int, seed int64) (*workload, error) {
	if warmRatio < 0 || warmRatio > 1 {
		return nil, fmt.Errorf("-warm-ratio %v out of [0,1]", warmRatio)
	}
	if warmPool < 1 {
		warmPool = 1
	}
	if sweepPoints < 1 {
		sweepPoints = 1
	}
	mixW, err := parseWeights(mix, func(n string) bool { return n == "analyze" || n == "sweep" })
	if err != nil {
		return nil, fmt.Errorf("-mix: %w", err)
	}
	sizeW, err := parseWeights(sizes, func(n string) bool { _, ok := bucketTasks[n]; return ok })
	if err != nil {
		return nil, fmt.Errorf("-sizes: %w", err)
	}
	sort.Slice(sizeW, func(i, j int) bool { return bucketTasks[sizeW[i].name] < bucketTasks[sizeW[j].name] })

	w := &workload{
		rng:         rand.New(rand.NewSource(seed)),
		mix:         mixW,
		sizes:       sizeW,
		warmRatio:   warmRatio,
		templates:   map[string]*bodyTemplate{},
		warmAnalyze: map[string][][]byte{},
		warmSweep:   map[string][][]byte{},
	}
	w.coldSeq.Store(1_000_000)
	for _, s := range sizeW {
		tmpl, err := newBodyTemplate(s.name, bucketTasks[s.name], sweepPoints)
		if err != nil {
			return nil, err
		}
		w.templates[s.name] = tmpl
		for i := 0; i < warmPool; i++ {
			d0 := int64(101 + i)
			w.warmAnalyze[s.name] = append(w.warmAnalyze[s.name], tmpl.analyzeBody(d0))
			w.warmSweep[s.name] = append(w.warmSweep[s.name], tmpl.sweepBody(d0))
		}
	}
	return w, nil
}

// pick draws the next request. Safe for concurrent use.
func (w *workload) pick() benchReq {
	w.mu.Lock()
	kind := pickWeighted(w.rng, w.mix)
	bucket := pickWeighted(w.rng, w.sizes)
	warm := w.rng.Float64() < w.warmRatio
	var warmIdx int
	if warm {
		warmIdx = w.rng.Intn(len(w.warmAnalyze[bucket]))
	}
	w.mu.Unlock()

	req := benchReq{bucket: bucket, warm: warm}
	switch kind {
	case "analyze":
		req.endpoint = "/analyze"
		if warm {
			req.body = w.warmAnalyze[bucket][warmIdx]
		} else {
			req.body = w.templates[bucket].analyzeBody(w.coldSeq.Add(1))
		}
	default:
		req.endpoint = "/sweep"
		if warm {
			req.body = w.warmSweep[bucket][warmIdx]
		} else {
			req.body = w.templates[bucket].sweepBody(w.coldSeq.Add(1))
		}
	}
	return req
}
