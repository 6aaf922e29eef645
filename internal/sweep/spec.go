// Package sweep implements the parametric scenario sweep subsystem: a JSON
// specification naming parameters over a base CSDF graph (actor execution
// times, channel rates, initial tokens; each a value list or an arithmetic
// range), a capped cross-product expander that materializes every scenario
// as a concrete graph sharing the base structure, and a runner that streams
// the scenario family through the analysis engine and folds the per-point
// results into a throughput envelope (min/max, argmin/argmax, optional
// Pareto front over one parameter axis).
//
// It is the workload class behind POST /sweep and kiterd -sweep: one
// request answers a design-space question ("how does throughput move as
// this rate varies?") instead of one concrete graph.
package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"

	"kiter/internal/csdf"
	"kiter/internal/engine"
	"kiter/internal/sdf3x"
)

// DefaultMaxScenarios caps the cross-product expansion when the spec does
// not set its own (lower) bound. The cap keeps a typo'd range from turning
// one HTTP request into millions of jobs.
const DefaultMaxScenarios = 4096

// HardMaxScenarios is the ceiling a spec's own maxScenarios may request.
const HardMaxScenarios = 1 << 20

// Spec is the wire form of a parametric sweep.
type Spec struct {
	// Base is the base graph in the repository's JSON graph format.
	Base json.RawMessage `json:"base"`
	// Parameters are the swept parameters; the scenario family is their
	// cross product, enumerated with the last parameter varying fastest.
	Parameters []Param `json:"parameters"`
	// MaxScenarios caps the expansion (default DefaultMaxScenarios, at
	// most HardMaxScenarios). Exceeding the cap is a spec error.
	MaxScenarios int `json:"maxScenarios,omitempty"`
	// Method, Analyses, Capacities and NoCache mirror the /analyze knobs
	// and apply to every scenario; empty values inherit server defaults.
	Method     string   `json:"method,omitempty"`
	Analyses   []string `json:"analyses,omitempty"`
	Capacities *bool    `json:"capacities,omitempty"`
	NoCache    bool     `json:"noCache,omitempty"`
	// Pareto names the parameter axis for the envelope's Pareto front
	// (minimize that parameter, maximize throughput). Empty disables it.
	Pareto string `json:"pareto,omitempty"`
}

// Param is one swept parameter: a target site in the base graph plus the
// values it takes. Exactly one of Values and Range must be set.
type Param struct {
	Name   string  `json:"name"`
	Target Target  `json:"target"`
	Values []int64 `json:"values,omitempty"`
	Range  *Range  `json:"range,omitempty"`
}

// Target locates the swept quantity in the base graph.
type Target struct {
	// Kind is "duration" (task execution time), "production" or
	// "consumption" (channel rates), or "initial" (initial tokens).
	Kind string `json:"kind"`
	// Task names the target task (duration targets).
	Task string `json:"task,omitempty"`
	// Buffer names the target buffer (rate and initial-token targets).
	Buffer string `json:"buffer,omitempty"`
	// Phase is the 1-indexed phase within the target's rate or duration
	// vector; 0 (the default) substitutes every phase.
	Phase int `json:"phase,omitempty"`
}

// Range generates From, From+Step, … while ≤ To. Step defaults to 1 and
// must be positive; an inverted range (From > To) is an error rather than
// an empty sweep, because it is always a spec mistake.
type Range struct {
	From int64 `json:"from"`
	To   int64 `json:"to"`
	Step int64 `json:"step,omitempty"`
}

// SpecError reports an invalid sweep specification. It is the caller's cue
// for HTTP 400 / usage-error handling as opposed to an execution failure.
type SpecError struct{ msg string }

func (e *SpecError) Error() string { return "sweep: " + e.msg }

func specErrf(format string, args ...any) error {
	return &SpecError{msg: fmt.Sprintf(format, args...)}
}

// ParseSpec decodes a sweep spec, rejecting unknown fields so a typo'd key
// (a misspelled "parameters", a stray "vaules") fails loudly instead of
// silently sweeping nothing.
func ParseSpec(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, specErrf("decoding spec: %v", err)
	}
	// Trailing garbage after the spec object is a malformed request too.
	if dec.More() {
		return nil, specErrf("decoding spec: trailing data after spec object")
	}
	return &s, nil
}

// knownKinds lists the valid Target.Kind values.
var knownKinds = map[string]bool{
	"duration":    true,
	"production":  true,
	"consumption": true,
	"initial":     true,
}

// values materializes the parameter's point list.
func (p *Param) values() ([]int64, error) {
	switch {
	case p.Values != nil && p.Range != nil:
		return nil, specErrf("parameter %q sets both values and range", p.Name)
	case len(p.Values) > 0:
		return p.Values, nil
	case p.Values != nil:
		return nil, specErrf("parameter %q has an empty values list", p.Name)
	case p.Range != nil:
		r := *p.Range
		if r.Step == 0 {
			r.Step = 1
		}
		if r.Step < 0 {
			return nil, specErrf("parameter %q: negative step %d", p.Name, r.Step)
		}
		if r.From > r.To {
			return nil, specErrf("parameter %q: inverted range %d..%d", p.Name, r.From, r.To)
		}
		// uint64(To−From) is the exact difference even when the int64
		// subtraction would overflow (e.g. From = −2⁶², To = 2⁶²). Compare
		// the step count against the cap before adding the +1, which would
		// itself wrap for the full-int64 range.
		steps := uint64(r.To-r.From) / uint64(r.Step)
		if steps >= HardMaxScenarios {
			return nil, specErrf("parameter %q: range yields over %d values (cap %d)", p.Name, steps, HardMaxScenarios)
		}
		n := steps + 1
		vs := make([]int64, n)
		v := r.From
		for i := range vs {
			vs[i] = v
			if i+1 < len(vs) {
				v += r.Step
			}
		}
		return vs, nil
	default:
		return nil, specErrf("parameter %q has no values and no range", p.Name)
	}
}

// site is a resolved target: the concrete IDs edits are built from.
type site struct {
	kind   string
	task   csdf.TaskID
	buffer csdf.BufferID
	phase  int
}

// overlaps reports whether two sites touch a common graph quantity: the
// same vector entry, or one substituting a whole vector (phase 0) that the
// other touches.
func (s site) overlaps(o site) bool {
	if s.kind != o.kind {
		return false
	}
	if s.kind == "duration" {
		if s.task != o.task {
			return false
		}
	} else if s.buffer != o.buffer {
		return false
	}
	return s.phase == o.phase || s.phase == 0 || o.phase == 0
}

// edit builds the csdf edit substituting v at the site.
func (s site) edit(v int64) csdf.Edit {
	switch s.kind {
	case "duration":
		return csdf.SetDuration(s.task, s.phase, v)
	case "production":
		return csdf.SetProduction(s.buffer, s.phase, v)
	case "consumption":
		return csdf.SetConsumption(s.buffer, s.phase, v)
	default: // "initial"; kinds are validated at resolve time
		return csdf.SetInitial(s.buffer, v)
	}
}

// resolve checks the target against the base graph and returns the site.
func (t Target) resolve(g *csdf.Graph, pname string) (site, error) {
	if !knownKinds[t.Kind] {
		return site{}, specErrf("parameter %q: unknown target kind %q (want duration, production, consumption or initial)", pname, t.Kind)
	}
	if t.Phase < 0 {
		return site{}, specErrf("parameter %q: negative phase %d", pname, t.Phase)
	}
	if t.Kind == "duration" {
		if t.Buffer != "" {
			return site{}, specErrf("parameter %q: duration target names a buffer", pname)
		}
		id, ok := g.TaskByName(t.Task)
		if !ok {
			return site{}, specErrf("parameter %q: unknown task %q", pname, t.Task)
		}
		if t.Phase > g.Task(id).Phases() {
			return site{}, specErrf("parameter %q: phase %d exceeds task %q's %d phases", pname, t.Phase, t.Task, g.Task(id).Phases())
		}
		return site{kind: t.Kind, task: id, phase: t.Phase}, nil
	}
	if t.Task != "" {
		return site{}, specErrf("parameter %q: %s target names a task", pname, t.Kind)
	}
	if t.Buffer == "" {
		return site{}, specErrf("parameter %q: %s target needs a buffer name", pname, t.Kind)
	}
	var id csdf.BufferID = -1
	for _, b := range g.Buffers() {
		if b.Name == t.Buffer {
			if id >= 0 {
				return site{}, specErrf("parameter %q: buffer name %q is ambiguous", pname, t.Buffer)
			}
			id = b.ID
		}
	}
	if id < 0 {
		return site{}, specErrf("parameter %q: unknown buffer %q", pname, t.Buffer)
	}
	var vlen int
	switch t.Kind {
	case "production":
		vlen = len(g.Buffer(id).In)
	case "consumption":
		vlen = len(g.Buffer(id).Out)
	case "initial":
		if t.Phase != 0 {
			return site{}, specErrf("parameter %q: initial-token target takes no phase", pname)
		}
	}
	if t.Phase > 0 && t.Phase > vlen {
		return site{}, specErrf("parameter %q: phase %d exceeds buffer %q's %d-entry %s vector", pname, t.Phase, t.Buffer, vlen, t.Kind)
	}
	return site{kind: t.Kind, buffer: id, phase: t.Phase}, nil
}

// engineKnobs converts the spec's per-scenario analysis knobs, validating
// them once up front. Zero values mean "inherit the caller's defaults".
func (s *Spec) engineKnobs() (engine.Method, []engine.AnalysisKind, error) {
	m := engine.Method(s.Method)
	if s.Method != "" && !engine.ValidMethod(m) {
		return "", nil, specErrf("unknown method %q", s.Method)
	}
	var as []engine.AnalysisKind
	for _, a := range s.Analyses {
		k := engine.AnalysisKind(a)
		if !engine.ValidAnalysis(k) {
			return "", nil, specErrf("unknown analysis %q", a)
		}
		as = append(as, k)
	}
	// The canonical order the engine keys results by, so that no
	// scenario's submission copies the list to sort it.
	slices.Sort(as)
	return m, slices.Compact(as), nil
}

// parseBase decodes and validates the spec's base graph and returns its
// facts.
func (s *Spec) parseBase() (*csdf.Facts, error) {
	if len(s.Base) == 0 {
		return nil, &SpecError{msg: "spec has no base graph"}
	}
	f, err := sdf3x.ReadFacts(bytes.NewReader(s.Base))
	if err != nil {
		return nil, specErrf("base graph: %v", err)
	}
	return f, nil
}
