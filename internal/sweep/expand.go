package sweep

import (
	"kiter/internal/csdf"
	"kiter/internal/engine"
)

// param is a compiled parameter: its point list plus the resolved edit site.
type param struct {
	name   string
	site   site
	values []int64
}

// Expansion is a compiled sweep: the validated base graph, the parameter
// grid, and the scenario enumeration. Scenarios are indexed 0..Total()−1 in
// row-major order over the parameter declaration order (the last parameter
// varies fastest), so neighbouring indices differ in one value — the order
// that maximizes structural overlap for the engine's fingerprint cache.
type Expansion struct {
	base   *csdf.Facts // every scenario's facts derive from these
	params []param
	total  int

	// per-scenario engine knobs, validated at compile time
	method     engine.Method
	analyses   []engine.AnalysisKind
	capacities bool
	noCache    bool
	paretoAxis int // index into params, -1 = none
}

// Compile validates a parsed spec against its base graph and returns the
// scenario family. Every error is a *SpecError. capacitiesDefault is the
// server-level default the spec's "capacities" field may override.
func Compile(s *Spec, capacitiesDefault bool) (*Expansion, error) {
	base, err := s.parseBase()
	if err != nil {
		return nil, err
	}
	method, analyses, err := s.engineKnobs()
	if err != nil {
		return nil, err
	}
	if len(s.Parameters) == 0 {
		return nil, specErrf("spec has no parameters")
	}
	limit := s.MaxScenarios
	switch {
	case limit == 0:
		limit = DefaultMaxScenarios
	case limit < 0:
		return nil, specErrf("negative maxScenarios %d", limit)
	case limit > HardMaxScenarios:
		return nil, specErrf("maxScenarios %d exceeds the hard cap %d", limit, HardMaxScenarios)
	}
	x := &Expansion{
		base:       base,
		total:      1,
		method:     method,
		analyses:   analyses,
		capacities: capacitiesDefault,
		noCache:    s.NoCache,
		paretoAxis: -1,
	}
	if s.Capacities != nil {
		x.capacities = *s.Capacities
	}
	seen := map[string]bool{}
	for i, p := range s.Parameters {
		if p.Name == "" {
			return nil, specErrf("parameter %d has no name", i)
		}
		if seen[p.Name] {
			return nil, specErrf("duplicate parameter name %q", p.Name)
		}
		seen[p.Name] = true
		vs, err := p.values()
		if err != nil {
			return nil, err
		}
		st, err := p.Target.resolve(base.Graph(), p.Name)
		if err != nil {
			return nil, err
		}
		// Overlapping targets would make later parameters silently shadow
		// earlier ones: the grid would enumerate value combinations that
		// never reach the graph, attributing throughput differences to a
		// parameter with no effect. Reject them up front.
		for k := range x.params {
			if x.params[k].site.overlaps(st) {
				return nil, specErrf("parameters %q and %q target the same site", x.params[k].name, p.Name)
			}
		}
		// The running total is already ≤ limit and each factor is bounded
		// by the body size, so the product cannot overflow int64 — but it
		// can overflow a 32-bit int, so widen before multiplying. Compare
		// against the cap after every factor so the error names the first
		// parameter that blows the budget.
		if int64(x.total)*int64(len(vs)) > int64(limit) {
			return nil, specErrf("cross product exceeds %d scenarios at parameter %q (raise maxScenarios or shrink a range)", limit, p.Name)
		}
		x.total *= len(vs)
		x.params = append(x.params, param{name: p.Name, site: st, values: vs})
	}
	if s.Pareto != "" {
		for i := range x.params {
			if x.params[i].name == s.Pareto {
				x.paretoAxis = i
			}
		}
		if x.paretoAxis < 0 {
			return nil, specErrf("pareto axis %q is not a parameter", s.Pareto)
		}
	}
	return x, nil
}

// Total returns the scenario count of the family.
func (x *Expansion) Total() int { return x.total }

// Base returns the validated base graph. Callers must treat it as
// immutable; scenario clones share its structure.
func (x *Expansion) Base() *csdf.Graph { return x.base.Graph() }

// ParamNames returns the parameter names in declaration order.
func (x *Expansion) ParamNames() []string {
	names := make([]string, len(x.params))
	for i := range x.params {
		names[i] = x.params[i].name
	}
	return names
}

// Values returns scenario i's parameter values in declaration order.
func (x *Expansion) Values(i int) []int64 {
	vals := make([]int64, len(x.params))
	for k := range vals {
		vals[k] = x.value(i, k)
	}
	return vals
}

// value returns parameter k's value in scenario i. Scenarios are numbered
// row-major: the last parameter varies fastest.
func (x *Expansion) value(i, k int) int64 {
	for j := len(x.params) - 1; j > k; j-- {
		i /= len(x.params[j].values)
	}
	return x.params[k].values[i%len(x.params[k].values)]
}

// Assignment returns scenario i's parameter values keyed by name — the
// wire form of a sweep point.
func (x *Expansion) Assignment(i int) map[string]int64 {
	m := make(map[string]int64, len(x.params))
	for k := range x.params {
		m[x.params[k].name] = x.value(i, k)
	}
	return m
}

// Materialize builds scenario i's concrete graph: the base structure with
// every parameter substituted, validated. The clone shares untouched rate
// and duration vectors with the base (see csdf.CloneWithEdits), so a large
// family costs O(edits) extra memory per member.
func (x *Expansion) Materialize(i int) (*csdf.Graph, error) {
	f, err := x.materialize(i)
	if err != nil {
		return nil, err
	}
	return f.Graph(), nil
}

// materialize returns the facts of scenario i's graph, derived from the
// base's: a scenario that edits no rate shares the base's repetition
// vector and components, and only its edited sites are validated.
func (x *Expansion) materialize(i int) (*csdf.Facts, error) {
	edits := make([]csdf.Edit, len(x.params))
	for k := range x.params {
		edits[k] = x.params[k].site.edit(x.value(i, k))
	}
	return x.base.CloneWithEdits(edits...)
}

// Request builds the engine request for scenario i, carrying the
// scenario's graph facts so the engine neither validates the graph again
// nor recomputes what the edits left unchanged.
func (x *Expansion) Request(i int) (*engine.Request, error) {
	f, err := x.materialize(i)
	if err != nil {
		return nil, err
	}
	return &engine.Request{
		Facts:           f,
		Analyses:        x.analyses,
		Method:          x.method,
		ApplyCapacities: x.capacities,
		NoCache:         x.noCache,
	}, nil
}
