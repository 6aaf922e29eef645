package sweep

import (
	"context"
	"math/big"
	"sort"
	"strconv"
	"strings"
	"time"

	"kiter/internal/engine"
	"kiter/internal/jsonw"
	"kiter/internal/rat"
)

// Point is one scenario's outcome: its index and parameter assignment plus
// either the engine result or a submission-level error. Analysis-level
// failures (deadlock, budget exhaustion) live inside Result's per-section
// Error fields, like everywhere else in the system.
type Point struct {
	Scenario int              `json:"scenario"`
	Params   map[string]int64 `json:"params"`
	Result   *engine.Result   `json:"result,omitempty"`
	Error    string           `json:"error,omitempty"`
}

// AppendJSON appends p's NDJSON line to b: the bytes
// json.NewEncoder(w).Encode(p) writes, trailing newline included, without
// reflection and without allocating once b has room. On a result float
// with no JSON form it returns b unchanged with encoding/json's error.
func (p *Point) AppendJSON(b []byte) ([]byte, error) {
	start := len(b)
	b = append(b, `{"scenario":`...)
	b = jsonw.Int(b, int64(p.Scenario))
	b = jsonw.IntMap(jsonw.Key(b, "params"), p.Params)
	if p.Result != nil {
		var err error
		if b, err = p.Result.AppendJSON(jsonw.Key(b, "result")); err != nil {
			return b[:start], err
		}
	}
	if p.Error != "" {
		b = jsonw.String(jsonw.Key(b, "error"), p.Error)
	}
	return append(b, '}', '\n'), nil
}

// ParetoPoint is one undominated scenario of the envelope's Pareto front.
type ParetoPoint struct {
	Scenario   int              `json:"scenario"`
	Axis       int64            `json:"axis"`
	Throughput string           `json:"throughput"`
	Params     map[string]int64 `json:"params"`
}

// Envelope is the aggregate a sweep folds its points into.
type Envelope struct {
	// Scenarios is the family size; Failed counts submission-level
	// failures (materialization errors, engine errors, cancellations);
	// AnalysisErrors counts scenarios whose throughput analysis reported a
	// per-section error (deadlock, budget exhaustion) — a legitimate sweep
	// outcome, not a run failure.
	Scenarios      int `json:"scenarios"`
	Completed      int `json:"completed"`
	Failed         int `json:"failed"`
	AnalysisErrors int `json:"analysisErrors"`

	// Min/Max describe the throughput envelope over the successfully
	// analyzed points, with the scenario assignments achieving them.
	MinThroughput string           `json:"minThroughput,omitempty"`
	MaxThroughput string           `json:"maxThroughput,omitempty"`
	MinPeriod     string           `json:"minPeriod,omitempty"`
	MaxPeriod     string           `json:"maxPeriod,omitempty"`
	ArgMin        map[string]int64 `json:"argMin,omitempty"`
	ArgMax        map[string]int64 `json:"argMax,omitempty"`
	ArgMinIndex   int              `json:"argMinScenario"`
	ArgMaxIndex   int              `json:"argMaxScenario"`

	// Pareto is the undominated set over (axis parameter ↓, throughput ↑),
	// sorted by ascending axis value; present when the spec set an axis.
	Pareto []ParetoPoint `json:"pareto,omitempty"`

	// ElapsedMS is the sweep wall-clock; Stats the engine counter movement
	// during the sweep (cache hits across overlapping scenarios show here).
	ElapsedMS float64      `json:"elapsedMs"`
	Stats     engine.Stats `json:"stats"`
}

// Runner streams sweeps through an engine.
type Runner struct {
	Engine *engine.Engine
	// Width is the number of scenario goroutines, so it bounds concurrent
	// scenario submissions (0 = the engine's batch default, 2·workers
	// clamped below the load-shedding threshold).
	Width int
	// PointTimeout bounds each scenario individually (0 = none) — the
	// server's per-request analysis budget applied per scenario, so a
	// large sweep of fast scenarios never times out as a whole while one
	// pathological scenario still cannot pin a worker forever.
	PointTimeout time.Duration
	// MemberContext, when set, derives each scenario's submission context
	// — the server uses it to open sampled per-scenario trace spans that
	// hang off the sweep's root. It may be called from many scenario
	// goroutines concurrently.
	MemberContext func(ctx context.Context, i int) context.Context
}

// throughputRat parses a result's exact throughput for envelope folding:
// the "num" or "num/den" rat.Rat.String writes in int64, without
// allocating, and anything else big.Rat.SetString reads (values beyond
// int64, other spellings) through math/big.
func throughputRat(res *engine.Result) (rat.Rat, bool) {
	t := res.Throughput
	if t == nil || t.Error != "" || t.Throughput == "" {
		return rat.Rat{}, false
	}
	if r, ok := parseInt64Rat(t.Throughput); ok {
		return r, true
	}
	r, ok := new(big.Rat).SetString(t.Throughput)
	if !ok {
		return rat.Rat{}, false
	}
	return rat.FromBig(r), true
}

// parseInt64Rat parses "num" or "num/den" with num an optionally negative
// and den a positive decimal, both within int64. It reports false for
// anything else, which big.Rat.SetString then decides.
func parseInt64Rat(s string) (rat.Rat, bool) {
	num, den := s, "1"
	if i := strings.IndexByte(s, '/'); i >= 0 {
		num, den = s[:i], s[i+1:]
	}
	if !decimal(strings.TrimPrefix(num, "-")) || !decimal(den) {
		return rat.Rat{}, false
	}
	n, err := strconv.ParseInt(num, 10, 64)
	if err != nil {
		return rat.Rat{}, false
	}
	d, err := strconv.ParseInt(den, 10, 64)
	if err != nil || d == 0 {
		return rat.Rat{}, false
	}
	return rat.NewRat(n, d), true
}

// decimal reports whether s is a string of decimal digits without a
// leading zero, which big.Rat.SetString would read as an octal prefix.
func decimal(s string) bool {
	if s == "" || s[0] == '0' && len(s) > 1 {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

// paretoCand is a Pareto candidate with its throughput already parsed, so
// finish never re-parses what add validated.
type paretoCand struct {
	point ParetoPoint
	rat   rat.Rat
}

// fold accumulates the envelope as points complete. min and max are
// meaningful once ArgMinIndex and ArgMaxIndex are set (non-negative).
type fold struct {
	env     Envelope
	x       *Expansion
	min     rat.Rat
	max     rat.Rat
	paretos []paretoCand // candidate set; reduced at finish
}

func newFold(x *Expansion) *fold {
	f := &fold{x: x}
	f.env.Scenarios = x.Total()
	f.env.ArgMinIndex = -1
	f.env.ArgMaxIndex = -1
	return f
}

func (f *fold) add(p Point) {
	if p.Error != "" {
		f.env.Failed++
		return
	}
	f.env.Completed++
	r, ok := throughputRat(p.Result)
	if !ok {
		if t := p.Result.Throughput; t != nil && t.Error != "" {
			f.env.AnalysisErrors++
		}
		return
	}
	// Ties break toward the lowest scenario index so identical specs yield
	// identical envelopes regardless of completion order.
	if c := r.Cmp(f.min); f.env.ArgMinIndex < 0 || c < 0 || (c == 0 && p.Scenario < f.env.ArgMinIndex) {
		f.min = r
		f.env.MinThroughput = p.Result.Throughput.Throughput
		f.env.MaxPeriod = p.Result.Throughput.Period
		f.env.ArgMin = p.Params
		f.env.ArgMinIndex = p.Scenario
	}
	if c := r.Cmp(f.max); f.env.ArgMaxIndex < 0 || c > 0 || (c == 0 && p.Scenario < f.env.ArgMaxIndex) {
		f.max = r
		f.env.MaxThroughput = p.Result.Throughput.Throughput
		f.env.MinPeriod = p.Result.Throughput.Period
		f.env.ArgMax = p.Params
		f.env.ArgMaxIndex = p.Scenario
	}
	if f.x.paretoAxis >= 0 {
		f.paretos = append(f.paretos, paretoCand{
			point: ParetoPoint{
				Scenario:   p.Scenario,
				Axis:       f.x.value(p.Scenario, f.x.paretoAxis),
				Throughput: p.Result.Throughput.Throughput,
				Params:     p.Params,
			},
			rat: r,
		})
	}
}

// finish reduces the Pareto candidates to the undominated set: minimize the
// axis parameter, maximize throughput. A point survives iff no other point
// has axis ≤ and throughput ≥ with one strict.
func (f *fold) finish() {
	if f.x.paretoAxis < 0 || len(f.paretos) == 0 {
		return
	}
	ps := f.paretos
	// Ascending axis, ties broken by descending throughput (so the first
	// point of each axis value is its best), then by scenario index — the
	// last key makes the front deterministic under completion-order races.
	sort.Slice(ps, func(a, b int) bool {
		if ps[a].point.Axis != ps[b].point.Axis {
			return ps[a].point.Axis < ps[b].point.Axis
		}
		if c := ps[a].rat.Cmp(ps[b].rat); c != 0 {
			return c > 0
		}
		return ps[a].point.Scenario < ps[b].point.Scenario
	})
	var front []ParetoPoint
	var best rat.Rat
	lastAxis := int64(0)
	for _, c := range ps {
		if len(front) > 0 && c.point.Axis == lastAxis {
			continue // dominated by the better point at the same axis value
		}
		if len(front) == 0 || c.rat.Cmp(best) > 0 {
			front = append(front, c.point)
			best = c.rat
			lastAxis = c.point.Axis
		}
	}
	f.env.Pareto = front
}

// Run expands and executes the sweep, invoking emit for every point in
// completion order (emit is serialized; it may write straight to a network
// stream). The envelope is returned once every scenario resolved. An emit
// error — a disconnected client — cancels the remaining scenarios,
// including in-flight solves, and is returned after the tail drains.
// A ctx cancellation likewise stops the sweep and returns ctx.Err();
// scenarios already completed are still reflected in the partial fold, but
// no envelope is produced for an aborted sweep.
func (r *Runner) Run(ctx context.Context, x *Expansion, emit func(Point) error) (*Envelope, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	f := newFold(x)
	before := r.Engine.Stats()
	start := time.Now()

	var emitErr error
	cfg := engine.FamilyConfig{Width: r.Width, MemberTimeout: r.PointTimeout, MemberContext: r.MemberContext}
	err := r.Engine.SubmitFamily(ctx, x.Total(), cfg, x.Request, func(fr engine.FamilyResult) {
		p := Point{Scenario: fr.Index, Params: x.Assignment(fr.Index), Result: fr.Result}
		if fr.Err != nil {
			p.Error = fr.Err.Error()
		}
		f.add(p)
		if emitErr != nil {
			return // client already gone; drain silently
		}
		if emit != nil {
			if err := emit(p); err != nil {
				emitErr = err
				cancel()
			}
		}
	})
	if emitErr != nil {
		return nil, emitErr
	}
	if err != nil {
		return nil, err
	}
	f.finish()
	f.env.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
	f.env.Stats = r.Engine.Stats().Delta(before)
	return &f.env, nil
}
