package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// EndpointResult is the per-endpoint slice of a run: request accounting by
// outcome class and status code, cache-hit counts parsed out of the
// response bodies, and the latency quantiles the SLO gate runs against.
// All latencies are milliseconds.
type EndpointResult struct {
	Endpoint      string            `json:"endpoint"`
	Requests      uint64            `json:"requests"`
	OK            uint64            `json:"ok"`
	Errors        uint64            `json:"errors"`
	Shed          uint64            `json:"shed"`
	Drained       uint64            `json:"drained"`
	ErrorRate     float64           `json:"error_rate"`
	ShedRate      float64           `json:"shed_rate"`
	DrainRate     float64           `json:"drain_rate"`
	ByStatus      map[string]uint64 `json:"by_status"`
	CacheHits     uint64            `json:"cache_hits"`
	CacheMisses   uint64            `json:"cache_misses"`
	CacheHitRatio float64           `json:"cache_hit_ratio"`
	P50Ms         float64           `json:"p50_ms"`
	P95Ms         float64           `json:"p95_ms"`
	P99Ms         float64           `json:"p99_ms"`
	P999Ms        float64           `json:"p999_ms"`
	MeanMs        float64           `json:"mean_ms"`
	MaxMs         float64           `json:"max_ms"`
	// FailedRequestIDs samples the X-Request-ID echoes of failed requests
	// (up to 8): the handles to pull the matching server-side traces from
	// GET /debug/traces after a bad run.
	FailedRequestIDs []string `json:"failed_request_ids,omitempty"`
}

// RunResult is one load phase (one mode).
type RunResult struct {
	Mode             string           `json:"mode"` // "closed" or "open"
	Concurrency      int              `json:"concurrency,omitempty"`
	TargetRps        float64          `json:"target_rps,omitempty"`
	WarmupSeconds    float64          `json:"warmup_seconds"`
	RampSeconds      float64          `json:"ramp_seconds,omitempty"`
	WindowSeconds    float64          `json:"window_seconds"`
	Requests         uint64           `json:"requests"`
	Rps              float64          `json:"rps"`
	CacheHitRatio    float64          `json:"cache_hit_ratio"`
	CacheAdjustedRps float64          `json:"cache_adjusted_rps"`
	DroppedTicks     uint64           `json:"dropped_ticks,omitempty"`
	Overall          EndpointResult   `json:"overall"`
	Endpoints        []EndpointResult `json:"endpoints"`
	SLOViolations    []string         `json:"slo_violations,omitempty"`
}

// Report is the BENCH_serve_*.json document, with the label /
// go_version / goarch header of the other BENCH_*.json files.
type Report struct {
	Label     string      `json:"label"`
	Target    string      `json:"target"`
	GoVersion string      `json:"go_version"`
	GOARCH    string      `json:"goarch"`
	Mix       string      `json:"mix"`
	Sizes     string      `json:"sizes"`
	WarmRatio float64     `json:"warm_ratio"`
	SLO       string      `json:"slo,omitempty"`
	Runs      []RunResult `json:"runs"`
}

func ratio(n, d uint64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

func (e *epStats) result(endpoint string) EndpointResult {
	r := EndpointResult{
		Endpoint:      endpoint,
		Requests:      e.requests,
		OK:            e.ok,
		Errors:        e.errors,
		Shed:          e.shed,
		Drained:       e.drained,
		ErrorRate:     ratio(e.errors, e.requests),
		ShedRate:      ratio(e.shed, e.requests),
		DrainRate:     ratio(e.drained, e.requests),
		ByStatus:      e.byStatus,
		CacheHits:     e.hits,
		CacheMisses:   e.misses,
		CacheHitRatio: ratio(e.hits, e.hits+e.misses),
		MaxMs:         float64(e.max) / float64(time.Millisecond),

		FailedRequestIDs: e.failedIDs,
	}
	r.P50Ms = e.hist.Quantile(0.50) * 1e3
	r.P95Ms = e.hist.Quantile(0.95) * 1e3
	r.P99Ms = e.hist.Quantile(0.99) * 1e3
	r.P999Ms = e.hist.Quantile(0.999) * 1e3
	if n := e.hist.Count(); n > 0 {
		r.MeanMs = e.hist.Sum() / float64(n) * 1e3
	}
	return r
}

// buildRun turns a recorder into a RunResult. The overall row merges the
// per-endpoint histograms (identical layouts, so Merge is exact) and the
// cache-hit-adjusted throughput discounts requests answered from the memo
// cache: adjusted = rps × (1 − hitRatio), the rate of actual solves.
func buildRun(mode string, rec *recorder, window time.Duration) RunResult {
	rec.mu.Lock()
	defer rec.mu.Unlock()

	run := RunResult{Mode: mode, WindowSeconds: window.Seconds()}
	overall := newEpStats()
	names := make([]string, 0, len(rec.eps))
	for name := range rec.eps {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ep := rec.eps[name]
		run.Endpoints = append(run.Endpoints, ep.result(name))
		_ = overall.hist.Merge(ep.hist)
		overall.requests += ep.requests
		overall.ok += ep.ok
		overall.errors += ep.errors
		overall.shed += ep.shed
		overall.drained += ep.drained
		overall.hits += ep.hits
		overall.misses += ep.misses
		if ep.max > overall.max {
			overall.max = ep.max
		}
		for k, v := range ep.byStatus {
			overall.byStatus[k] += v
		}
		for _, id := range ep.failedIDs {
			if len(overall.failedIDs) < maxFailedIDSamples {
				overall.failedIDs = append(overall.failedIDs, id)
			}
		}
	}
	run.Overall = overall.result("overall")
	run.Requests = overall.requests
	if window > 0 {
		run.Rps = float64(overall.requests) / window.Seconds()
	}
	run.CacheHitRatio = run.Overall.CacheHitRatio
	run.CacheAdjustedRps = run.Rps * (1 - run.CacheHitRatio)
	return run
}

// sloRule is one parsed assertion of a -slo flag.
type sloRule struct {
	endpoint  string  // "" = overall
	metric    string  // p50 p95 p99 p999 errors shed drained
	threshold float64 // seconds for quantiles, fraction for rates
	raw       string
}

// parseSLO parses "p99=250ms,errors=0.1%,analyze.p95=50ms". Quantile
// metrics take a duration; rate metrics take a percentage ("0.1%") or a
// bare fraction ("0.001"). A leading "analyze." or "sweep." scopes the
// rule to that endpoint; unscoped rules check the overall row.
func parseSLO(s string) ([]sloRule, error) {
	var rules []sloRule
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, found := strings.Cut(part, "=")
		if !found {
			return nil, fmt.Errorf("slo %q: want metric=threshold", part)
		}
		rule := sloRule{raw: part, metric: strings.TrimSpace(key)}
		if ep, m, scoped := strings.Cut(rule.metric, "."); scoped {
			if ep != "analyze" && ep != "sweep" {
				return nil, fmt.Errorf("slo %q: unknown endpoint scope %q", part, ep)
			}
			rule.endpoint, rule.metric = "/"+ep, m
		}
		val = strings.TrimSpace(val)
		switch rule.metric {
		case "p50", "p95", "p99", "p999":
			d, err := time.ParseDuration(val)
			if err != nil {
				return nil, fmt.Errorf("slo %q: %v", part, err)
			}
			rule.threshold = d.Seconds()
		case "errors", "shed", "drained":
			frac := 1.0
			if strings.HasSuffix(val, "%") {
				val, frac = strings.TrimSuffix(val, "%"), 0.01
			}
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("slo %q: %v", part, err)
			}
			rule.threshold = f * frac
		default:
			return nil, fmt.Errorf("slo %q: unknown metric %q", part, rule.metric)
		}
		rules = append(rules, rule)
	}
	return rules, nil
}

// checkSLO evaluates rules against one run and returns a human-readable
// violation per failed rule.
func checkSLO(rules []sloRule, run *RunResult) []string {
	lookup := func(endpoint string) *EndpointResult {
		if endpoint == "" {
			return &run.Overall
		}
		for i := range run.Endpoints {
			if run.Endpoints[i].Endpoint == endpoint {
				return &run.Endpoints[i]
			}
		}
		return nil
	}
	var violations []string
	for _, rule := range rules {
		ep := lookup(rule.endpoint)
		if ep == nil {
			// The mix sent no traffic to the scoped endpoint: the assertion
			// is vacuous, not violated.
			continue
		}
		var got float64
		var unit string
		switch rule.metric {
		case "p50":
			got, unit = ep.P50Ms/1e3, "s"
		case "p95":
			got, unit = ep.P95Ms/1e3, "s"
		case "p99":
			got, unit = ep.P99Ms/1e3, "s"
		case "p999":
			got, unit = ep.P999Ms/1e3, "s"
		case "errors":
			got = ep.ErrorRate
		case "shed":
			got = ep.ShedRate
		case "drained":
			got = ep.DrainRate
		}
		if got > rule.threshold {
			scope := rule.endpoint
			if scope == "" {
				scope = "overall"
			}
			if unit == "s" {
				violations = append(violations, fmt.Sprintf(
					"%s mode %s: %s = %.3fms exceeds %s", run.Mode, scope, rule.metric,
					got*1e3, rule.raw))
			} else {
				violations = append(violations, fmt.Sprintf(
					"%s mode %s: %s = %.4f%% exceeds %s", run.Mode, scope, rule.metric,
					got*100, rule.raw))
			}
		}
	}
	return violations
}
