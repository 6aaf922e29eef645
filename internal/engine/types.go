// Package engine is the concurrent analysis engine: it accepts jobs (a
// CSDF graph plus a set of requested analyses), runs at most Workers of
// them at once, deduplicates identical in-flight submissions, memoizes
// completed results in a sharded LRU cache keyed by the graph's structural
// fingerprint, and — for throughput — runs a fixed fallback chain by
// default: K-Iter, then symbolic execution when K-Iter fails, then the
// 1-periodic method when both fail.
//
// The engine is the serving layer behind cmd/kiterd (HTTP and batch) and
// the architectural seam for future scaling work: sharded cache backends,
// distributed workers and scenario sweeps all plug in behind Submit.
package engine

import (
	"slices"
	"strings"

	"kiter/internal/csdf"
)

// AnalysisKind selects one analysis of a Request.
type AnalysisKind string

const (
	// AnalysisThroughput evaluates the maximum throughput (method
	// selectable, default MethodAuto).
	AnalysisThroughput AnalysisKind = "throughput"
	// AnalysisSchedule materializes an optimal K-periodic schedule.
	AnalysisSchedule AnalysisKind = "schedule"
	// AnalysisSizing computes throughput-preserving buffer capacities.
	AnalysisSizing AnalysisKind = "sizing"
	// AnalysisSymbolic runs self-timed symbolic execution.
	AnalysisSymbolic AnalysisKind = "symbolic"
)

// analysisSpans maps every valid kind to the trace span its analysis runs
// under, named once so that an evaluation builds none.
var analysisSpans = map[AnalysisKind]string{
	AnalysisThroughput: "analysis.throughput",
	AnalysisSchedule:   "analysis.schedule",
	AnalysisSizing:     "analysis.sizing",
	AnalysisSymbolic:   "analysis.symbolic",
}

// Method selects the throughput evaluation strategy.
type Method string

const (
	// MethodAuto is the default: K-Iter, falling back to symbolic
	// execution when K-Iter fails (typically by exceeding its expansion
	// budget), and to the 1-periodic method — whose answer may be a bound
	// only — when symbolic execution fails too.
	MethodAuto Method = "auto"
	// MethodRace is the former name of the default method, from when the
	// three methods raced; Submit treats it as MethodAuto.
	MethodRace Method = "race"
	// MethodKIter runs Algorithm 1 alone.
	MethodKIter Method = "kiter"
	// MethodPeriodic runs the 1-periodic approximation alone (the result
	// may be a lower throughput bound, Optimal reports tightness).
	MethodPeriodic Method = "periodic"
	// MethodExpansion runs the K = q full expansion alone.
	MethodExpansion Method = "expansion"
	// MethodSymbolic runs symbolic execution alone.
	MethodSymbolic Method = "symbolic"
)

// methodNames maps every method with a solver of its own (all but the
// default) to the solver's trace span and fault-injection point, named
// once so that an evaluation builds neither.
var methodNames = map[Method]struct{ span, point string }{
	MethodKIter:     {"solve.kiter", "solver.kiter"},
	MethodPeriodic:  {"solve.periodic", "solver.periodic"},
	MethodExpansion: {"solve.expansion", "solver.expansion"},
	MethodSymbolic:  {"solve.symbolic", "solver.symbolic"},
}

// ValidAnalysis reports whether a names a known analysis — for front-ends
// that want to fail fast on configuration instead of per submission.
func ValidAnalysis(a AnalysisKind) bool { return analysisSpans[a] != "" }

// ValidMethod reports whether m names a known throughput method.
func ValidMethod(m Method) bool {
	return m == MethodAuto || m == MethodRace || methodNames[m].span != ""
}

// Request is one unit of work for the engine.
type Request struct {
	// Graph is the graph to analyze when Facts are not set; Submit
	// validates it. The engine treats it as immutable.
	Graph *csdf.Graph
	// Analyses lists the requested analyses (default: throughput only).
	// Submit never modifies it, and keeps a sorted list without
	// duplicates as it is, so it must not change while in use.
	Analyses []AnalysisKind
	// Method selects the throughput strategy (default: auto). It only
	// affects the throughput analysis.
	Method Method
	// ApplyCapacities rewrites declared buffer capacities into reverse
	// buffers (back-pressure modelling) before analysis.
	ApplyCapacities bool
	// NoCache bypasses both cache lookup and cache store.
	NoCache bool
	// NoForward pins the evaluation to this process even when the engine
	// has a cluster Dispatcher. The cluster's receiving handler sets it on
	// forwarded arrivals, capping routing at a single hop (and making
	// forwarding loops impossible) even when replicas' health views
	// diverge about a key's owner.
	NoForward bool
	// Facts stand for the validated graph to analyze, which Submit then
	// does not validate again: decoders return the facts of the graph
	// they validated, and a sweep derives each scenario's from its base
	// graph's. Graph may be left nil; set, it must be Facts.Graph().
	Facts *csdf.Facts
	// GraphJSON, when set, is the JSON text the graph was decoded from
	// (sdf3x.Body.GraphJSON). A forward to a cluster peer sends it as it
	// is instead of encoding the graph again. Submit reads it only while
	// it offers the job to the Dispatcher, on the calling goroutine, so it
	// may alias a buffer the caller reuses once ReleaseGraphJSON is called
	// or Submit returns.
	GraphJSON []byte
	// ReleaseGraphJSON, when set, is called on the calling goroutine as
	// soon as Submit will not read GraphJSON again: once the forward has
	// copied it, or before a local evaluation or the wait on a duplicate's.
	// Submit may return without calling it.
	ReleaseGraphJSON func()
	// cacheKeyHint and fingerprintHint are filled by Submit on the
	// prepared request handed to workers, so the hash is computed once.
	cacheKeyHint    string
	fingerprintHint string
}

// releaseGraphJSON calls ReleaseGraphJSON, when set.
func (r *Request) releaseGraphJSON() {
	if r.ReleaseGraphJSON != nil {
		r.ReleaseGraphJSON()
	}
}

// ThroughputResult is the throughput section of a Result. Periods and
// throughputs are exact rationals rendered as "num/den" strings.
type ThroughputResult struct {
	Period     string  `json:"period,omitempty"`
	Throughput string  `json:"throughput,omitempty"`
	Float      float64 `json:"throughputFloat,omitempty"`
	Optimal    bool    `json:"optimal"`
	// Method is the strategy that produced the result — under the default
	// method, the chain step that answered.
	Method Method `json:"method"`
	// K is the certified periodicity vector (K-Iter only).
	K []int64 `json:"k,omitempty"`
	// Iterations counts K-Iter rounds (K-Iter only).
	Iterations int    `json:"iterations,omitempty"`
	Error      string `json:"error,omitempty"`
}

// ScheduleResult is the schedule section of a Result.
type ScheduleResult struct {
	K       []int64 `json:"k,omitempty"`
	Period  string  `json:"period,omitempty"`
	Latency string  `json:"latency,omitempty"`
	Error   string  `json:"error,omitempty"`
}

// SizingResult is the buffer-sizing section of a Result.
type SizingResult struct {
	Capacities []int64 `json:"capacities,omitempty"`
	Period     string  `json:"period,omitempty"`
	Error      string  `json:"error,omitempty"`
}

// SymbolicResult is the symbolic-execution section of a Result.
type SymbolicResult struct {
	Period        string  `json:"period,omitempty"`
	Throughput    string  `json:"throughput,omitempty"`
	Float         float64 `json:"throughputFloat,omitempty"`
	TransientTime int64   `json:"transientTime,omitempty"`
	CycleTime     int64   `json:"cycleTime,omitempty"`
	Events        int64   `json:"events,omitempty"`
	StatesStored  int     `json:"statesStored,omitempty"`
	Error         string  `json:"error,omitempty"`
}

// Result is the outcome of a Request. Analysis-level failures (deadlock,
// budget exhaustion, infeasibility) are reported in the per-section Error
// fields and are cached like any other deterministic outcome;
// infrastructure failures (cancellation, engine shutdown, overload) are
// returned as Submit errors and never cached.
type Result struct {
	// Graph is the name of the analyzed graph (not part of the cache key).
	Graph string `json:"graph,omitempty"`
	// Fingerprint is the structural hash the result was keyed under.
	Fingerprint string `json:"fingerprint"`

	Throughput *ThroughputResult `json:"throughput,omitempty"`
	Schedule   *ScheduleResult   `json:"schedule,omitempty"`
	Sizing     *SizingResult     `json:"sizing,omitempty"`
	Symbolic   *SymbolicResult   `json:"symbolic,omitempty"`

	// CacheHit reports that the result was served from the memo cache;
	// Deduped that it was coalesced onto an identical in-flight job.
	CacheHit bool `json:"cacheHit"`
	Deduped  bool `json:"deduped"`
	// Peer is the cluster replica that evaluated the result when it was
	// forwarded there (empty for local evaluations). It sticks through the
	// local memo cache, so a later CacheHit still shows where the work ran.
	Peer string `json:"peer,omitempty"`
	// ElapsedMS is the wall-clock evaluation time of the job that
	// produced the result (zero-cost for cache hits, shared for deduped
	// submissions).
	ElapsedMS float64 `json:"elapsedMs"`

	// symDeadlock marks a Symbolic section whose Error is a certified
	// deadlock (distinguishing it from budget exhaustion), so the
	// throughput analysis can reuse it as a definitive verdict.
	symDeadlock bool
}

// shallowCopy returns a copy whose section pointers are shared. Sections
// are immutable once published, so sharing is safe; the copy exists so
// that per-submission flags (CacheHit, Deduped, Graph) never mutate the
// cached instance.
func (r *Result) shallowCopy() *Result {
	c := *r
	return &c
}

// defaultAnalyses is the analysis list of a request that names none.
var defaultAnalyses = []AnalysisKind{AnalysisThroughput}

// normalize applies defaults and returns the deduplicated, sorted analysis
// list (the canonical form used in cache keys), copying only a list that
// is not in that form already.
func (req *Request) normalize() []AnalysisKind {
	as := req.Analyses
	if len(as) == 0 {
		return defaultAnalyses
	}
	for i := 1; i < len(as); i++ {
		if as[i-1] >= as[i] {
			out := slices.Clone(as)
			slices.Sort(out)
			return slices.Compact(out)
		}
	}
	return as
}

// cacheKey derives the memoization key: structural fingerprint plus every
// request knob that changes the outcome. Graph and task names are excluded
// (analyses are name-blind), as are per-submission flags.
func cacheKey(fingerprint string, analyses []AnalysisKind, m Method, capacities bool) string {
	var sb strings.Builder
	sb.WriteString(fingerprint)
	sb.WriteByte('|')
	sb.WriteString(string(m))
	if capacities {
		sb.WriteString("|cap")
	}
	for _, a := range analyses {
		sb.WriteByte('|')
		sb.WriteString(string(a))
	}
	return sb.String()
}
