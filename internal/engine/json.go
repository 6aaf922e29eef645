package engine

import (
	"encoding/json"

	"kiter/internal/jsonw"
)

// AppendJSON appends r's JSON object to b: the bytes json.Marshal(r)
// writes, field order, omitempty and escaping included, without reflection
// and without allocating once b has room. A nil r is null. A NaN or an
// infinite float has no JSON form; AppendJSON then returns b unchanged with
// the error json.Marshal reports.
func (r *Result) AppendJSON(b []byte) ([]byte, error) {
	if r == nil {
		return append(b, "null"...), nil
	}
	if !r.finite() {
		_, err := json.Marshal(r)
		return b, err
	}
	b = append(b, '{')
	if r.Graph != "" {
		b = jsonw.String(jsonw.Key(b, "graph"), r.Graph)
	}
	b = jsonw.String(jsonw.Key(b, "fingerprint"), r.Fingerprint)
	if t := r.Throughput; t != nil {
		b = append(jsonw.Key(b, "throughput"), '{')
		if t.Period != "" {
			b = jsonw.String(jsonw.Key(b, "period"), t.Period)
		}
		if t.Throughput != "" {
			b = jsonw.String(jsonw.Key(b, "throughput"), t.Throughput)
		}
		if t.Float != 0 {
			b = jsonw.Float(jsonw.Key(b, "throughputFloat"), t.Float)
		}
		b = jsonw.Bool(jsonw.Key(b, "optimal"), t.Optimal)
		b = jsonw.String(jsonw.Key(b, "method"), string(t.Method))
		if len(t.K) > 0 {
			b = jsonw.Ints(jsonw.Key(b, "k"), t.K)
		}
		if t.Iterations != 0 {
			b = jsonw.Int(jsonw.Key(b, "iterations"), int64(t.Iterations))
		}
		if t.Error != "" {
			b = jsonw.String(jsonw.Key(b, "error"), t.Error)
		}
		b = append(b, '}')
	}
	if s := r.Schedule; s != nil {
		b = append(jsonw.Key(b, "schedule"), '{')
		if len(s.K) > 0 {
			b = jsonw.Ints(jsonw.Key(b, "k"), s.K)
		}
		if s.Period != "" {
			b = jsonw.String(jsonw.Key(b, "period"), s.Period)
		}
		if s.Latency != "" {
			b = jsonw.String(jsonw.Key(b, "latency"), s.Latency)
		}
		if s.Error != "" {
			b = jsonw.String(jsonw.Key(b, "error"), s.Error)
		}
		b = append(b, '}')
	}
	if s := r.Sizing; s != nil {
		b = append(jsonw.Key(b, "sizing"), '{')
		if len(s.Capacities) > 0 {
			b = jsonw.Ints(jsonw.Key(b, "capacities"), s.Capacities)
		}
		if s.Period != "" {
			b = jsonw.String(jsonw.Key(b, "period"), s.Period)
		}
		if s.Error != "" {
			b = jsonw.String(jsonw.Key(b, "error"), s.Error)
		}
		b = append(b, '}')
	}
	if s := r.Symbolic; s != nil {
		b = append(jsonw.Key(b, "symbolic"), '{')
		if s.Period != "" {
			b = jsonw.String(jsonw.Key(b, "period"), s.Period)
		}
		if s.Throughput != "" {
			b = jsonw.String(jsonw.Key(b, "throughput"), s.Throughput)
		}
		if s.Float != 0 {
			b = jsonw.Float(jsonw.Key(b, "throughputFloat"), s.Float)
		}
		if s.TransientTime != 0 {
			b = jsonw.Int(jsonw.Key(b, "transientTime"), s.TransientTime)
		}
		if s.CycleTime != 0 {
			b = jsonw.Int(jsonw.Key(b, "cycleTime"), s.CycleTime)
		}
		if s.Events != 0 {
			b = jsonw.Int(jsonw.Key(b, "events"), s.Events)
		}
		if s.StatesStored != 0 {
			b = jsonw.Int(jsonw.Key(b, "statesStored"), int64(s.StatesStored))
		}
		if s.Error != "" {
			b = jsonw.String(jsonw.Key(b, "error"), s.Error)
		}
		b = append(b, '}')
	}
	b = jsonw.Bool(jsonw.Key(b, "cacheHit"), r.CacheHit)
	b = jsonw.Bool(jsonw.Key(b, "deduped"), r.Deduped)
	if r.Peer != "" {
		b = jsonw.String(jsonw.Key(b, "peer"), r.Peer)
	}
	b = jsonw.Float(jsonw.Key(b, "elapsedMs"), r.ElapsedMS)
	return append(b, '}'), nil
}

// finite reports whether every float of r has a JSON form.
func (r *Result) finite() bool {
	return jsonw.Finite(r.ElapsedMS) &&
		(r.Throughput == nil || jsonw.Finite(r.Throughput.Float)) &&
		(r.Symbolic == nil || jsonw.Finite(r.Symbolic.Float))
}
