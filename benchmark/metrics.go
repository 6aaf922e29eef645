package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"
)

// declared is one metric declaration of BENCHMARK.json.
type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchSpec is the part of BENCHMARK.json the benchmark reads: the
// workload names and the metric declarations, which fix every metric's
// name, unit and printing order.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func (s *benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// pick selects the metrics decls declares from the computed values. It
// fails on a declared metric that was not computed, and on a computed one
// that all, the whole declaration, does not name.
func pick(decls []declared, values map[string]float64, all []declared) (map[string]metricValue, error) {
	named := map[string]bool{}
	for _, d := range all {
		named[d.Name] = true
	}
	for name := range values {
		if !named[name] {
			return nil, fmt.Errorf("metric %s is measured but not declared", name)
		}
	}
	out := make(map[string]metricValue, len(decls))
	for _, d := range decls {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is declared but was not measured", d.Name)
		}
		out[d.Name] = metricValue{v, d.Unit}
	}
	return out, nil
}

// printMetrics writes one "name value unit" line per metric, in declared
// order.
func printMetrics(w io.Writer, decls []declared, m map[string]metricValue) {
	for _, d := range decls {
		fmt.Fprintf(w, "%-40s %14.6g %s\n", d.Name, m[d.Name].Value, d.Unit)
	}
}

func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	// Nearest rank: the smallest sample with at least q of them at or
	// below it (the epsilon absorbs q·n landing just above an integer).
	rank := int(math.Ceil(q*float64(len(s)) - 1e-9))
	return s[max(0, min(rank-1, len(s)-1))]
}

// median returns the middle sample, or the mean of the middle two.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

// beyond counts the samples strictly above v.
func beyond(xs []float64, v float64) int {
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
