package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// LogLinearBuckets builds a log-linear bucket boundary ladder: starting at
// lo, each octave doubles the scale and is split into perOctave equal-width
// sub-buckets, for octaves octaves. The result is the ascending slice of
// inclusive upper bounds (the +Inf bucket is implicit), so relative
// resolution stays roughly constant (≤ 1/perOctave) across the whole
// range — the shape latency distributions need: microsecond cache hits and
// multi-second solves land in equally meaningful buckets.
func LogLinearBuckets(lo float64, octaves, perOctave int) []float64 {
	if lo <= 0 || octaves <= 0 || perOctave <= 0 {
		panic("telemetry: LogLinearBuckets arguments must be positive")
	}
	out := make([]float64, 0, octaves*perOctave)
	base := lo
	for o := 0; o < octaves; o++ {
		for i := 1; i <= perOctave; i++ {
			out = append(out, base+base*float64(i)/float64(perOctave))
		}
		base *= 2
	}
	return out
}

// LatencyBuckets is the default layout for request and solve latencies in
// seconds: 1 µs up to ~134 s at two sub-buckets per octave (54 buckets).
var LatencyBuckets = LogLinearBuckets(1e-6, 27, 2)

// CountBuckets is the default layout for iteration/round counts: 1 up to
// 16384 at two sub-buckets per octave.
var CountBuckets = LogLinearBuckets(1, 14, 2)

// Histogram is a fixed-bucket histogram safe for concurrent observation.
// Buckets hold non-cumulative counts internally; the Prometheus exposition
// and Quantile compute the cumulative view. All methods are safe on a nil
// receiver (no-ops / zero values), so instrumentation points never have to
// guard for a disabled registry.
type Histogram struct {
	name    string
	bounds  []float64 // ascending inclusive upper bounds; +Inf implicit
	counts  []atomic.Uint64
	sumBits atomic.Uint64 // float64 bits of the running sum
}

// NewHistogram returns a histogram with the given ascending bucket bounds
// (nil → LatencyBuckets) outside any Registry. Clients like
// cmd/kiterbench use it to reuse the log-linear layout, merge and quantile
// estimator for their own aggregation without Prometheus exposition.
func NewHistogram(name string, bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = LatencyBuckets
	}
	if !sort.Float64sAreSorted(bounds) {
		panic(fmt.Sprintf("telemetry: histogram %s bounds not ascending", name))
	}
	return &Histogram{
		name:   name,
		bounds: bounds,
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// First bucket whose (inclusive) upper bound admits v; beyond every
	// bound lands in the trailing +Inf bucket.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Quantile estimates the q-quantile (q in [0, 1]) from the bucket counts by
// linear interpolation inside the bucket where the cumulative count crosses
// q·total. The estimate is within one bucket of the exact sample quantile
// by construction: every observation in a bucket is bracketed by the
// bucket's bounds. Returns 0 with no observations; values in the +Inf
// bucket report the highest finite bound.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.Count()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(total)
	if target < 1 {
		target = 1
	}
	var cum float64
	for i := range h.counts {
		n := float64(h.counts[i].Load())
		if n == 0 {
			continue
		}
		if cum+n >= target {
			if i >= len(h.bounds) {
				return h.bounds[len(h.bounds)-1]
			}
			lower := 0.0
			if i > 0 {
				lower = h.bounds[i-1]
			}
			return lower + (h.bounds[i]-lower)*(target-cum)/n
		}
		cum += n
	}
	return h.bounds[len(h.bounds)-1]
}

// Merge folds other's observations into h. Both histograms must share the
// same bucket layout; merging across layouts would silently misbin.
func (h *Histogram) Merge(other *Histogram) error {
	if h == nil || other == nil {
		return nil
	}
	if len(h.bounds) != len(other.bounds) {
		return fmt.Errorf("telemetry: merging histograms with %d vs %d buckets", len(h.bounds), len(other.bounds))
	}
	for i, b := range h.bounds {
		if b != other.bounds[i] {
			return fmt.Errorf("telemetry: merging histograms with different bounds at bucket %d (%g vs %g)", i, b, other.bounds[i])
		}
	}
	for i := range other.counts {
		if n := other.counts[i].Load(); n > 0 {
			h.counts[i].Add(n)
		}
	}
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + other.Sum())
		if h.sumBits.CompareAndSwap(old, next) {
			return nil
		}
	}
}

// expose writes the histogram in Prometheus text format: cumulative
// le-labeled buckets, then _sum and _count.
func (h *Histogram) expose(x *ExpoWriter, labels []string) {
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		x.Sample(h.name+"_bucket", float64(cum), append(append([]string(nil), labels...), "le", formatBound(b))...)
	}
	cum += h.counts[len(h.bounds)].Load()
	x.Sample(h.name+"_bucket", float64(cum), append(append([]string(nil), labels...), "le", "+Inf")...)
	x.Sample(h.name+"_sum", h.Sum(), labels...)
	x.Sample(h.name+"_count", float64(cum), labels...)
}
