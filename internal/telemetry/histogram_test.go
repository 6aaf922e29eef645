package telemetry

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestLogLinearBucketLayout(t *testing.T) {
	b := LogLinearBuckets(1, 3, 4)
	want := []float64{1.25, 1.5, 1.75, 2, 2.5, 3, 3.5, 4, 5, 6, 7, 8}
	if len(b) != len(want) {
		t.Fatalf("got %d bounds, want %d: %v", len(b), len(want), b)
	}
	for i := range want {
		if math.Abs(b[i]-want[i]) > 1e-12 {
			t.Fatalf("bound %d = %g, want %g", i, b[i], want[i])
		}
	}
	if !sort.Float64sAreSorted(LatencyBuckets) {
		t.Fatal("LatencyBuckets not sorted")
	}
	if !sort.Float64sAreSorted(CountBuckets) {
		t.Fatal("CountBuckets not sorted")
	}
}

// TestHistogramBucketBoundaries pins the inclusive-upper-bound semantics:
// a value exactly on a bound lands in that bound's bucket (Prometheus le
// semantics), a value just above lands in the next.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram("t", []float64{1, 2, 4})
	h.Observe(1)         // bucket 0 (le=1)
	h.Observe(1.0000001) // bucket 1 (le=2)
	h.Observe(4)         // bucket 2 (le=4)
	h.Observe(5)         // +Inf bucket
	h.Observe(-1)        // below the ladder still lands in bucket 0
	wants := []uint64{2, 1, 1, 1}
	for i, want := range wants {
		if got := h.counts[i].Load(); got != want {
			t.Errorf("bucket %d count = %d, want %d", i, got, want)
		}
	}
	if got := h.Count(); got != 5 {
		t.Errorf("Count = %d, want 5", got)
	}
	if got, want := h.Sum(), 1+1.0000001+4+5-1; math.Abs(got-want) > 1e-9 {
		t.Errorf("Sum = %g, want %g", got, want)
	}
}

func TestHistogramMerge(t *testing.T) {
	a := NewHistogram("a", []float64{1, 2, 4})
	b := NewHistogram("b", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 3, 9} {
		a.Observe(v)
	}
	for _, v := range []float64{1.5, 2.5} {
		b.Observe(v)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if got := a.Count(); got != 5 {
		t.Errorf("merged Count = %d, want 5", got)
	}
	if got, want := a.Sum(), 0.5+3+9+1.5+2.5; math.Abs(got-want) > 1e-9 {
		t.Errorf("merged Sum = %g, want %g", got, want)
	}
	// b untouched.
	if got := b.Count(); got != 2 {
		t.Errorf("source Count = %d, want 2", got)
	}
	mismatched := NewHistogram("c", []float64{1, 2})
	if err := a.Merge(mismatched); err == nil {
		t.Error("merging mismatched layouts should fail")
	}
	shifted := NewHistogram("d", []float64{1, 2, 5})
	if err := a.Merge(shifted); err == nil {
		t.Error("merging shifted bounds should fail")
	}
}

// TestHistogramQuantileProperty is the satellite property test: over many
// random samples and distributions, the estimated p99 (and p50) must land
// within one bucket of the exact sorted-sample quantile — the histogram's
// resolution guarantee.
func TestHistogramQuantileProperty(t *testing.T) {
	bounds := LogLinearBuckets(1e-6, 27, 2)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		h := NewHistogram("q", bounds)
		n := 100 + rng.Intn(2000)
		samples := make([]float64, n)
		for i := range samples {
			var v float64
			switch trial % 3 {
			case 0: // log-uniform over the whole ladder
				v = math.Exp(rng.Float64()*math.Log(1e8)) * 1e-6
			case 1: // heavy-tailed around 1ms
				v = 1e-3 * math.Exp(rng.NormFloat64())
			default: // bimodal: cache hits vs. solves
				if rng.Intn(2) == 0 {
					v = 1e-5 * (1 + rng.Float64())
				} else {
					v = 0.1 * (1 + rng.Float64())
				}
			}
			samples[i] = v
			h.Observe(v)
		}
		sort.Float64s(samples)
		for _, q := range []float64{0.5, 0.99} {
			exact := samples[int(math.Ceil(q*float64(n)))-1]
			est := h.Quantile(q)
			lo, hi := bucketRange(bounds, est)
			// Widen by one bucket on each side: the estimate may sit at a
			// boundary shared with the exact value's neighbour bucket.
			loIdx := sort.SearchFloat64s(bounds, lo)
			hiIdx := sort.SearchFloat64s(bounds, hi)
			exactIdx := sort.SearchFloat64s(bounds, exact)
			if exactIdx < loIdx-1 || exactIdx > hiIdx+1 {
				t.Fatalf("trial %d q=%g: estimate %g (buckets %d..%d) vs exact %g (bucket %d): off by more than one bucket",
					trial, q, est, loIdx, hiIdx, exact, exactIdx)
			}
		}
	}
}

// bucketRange returns the bounds of the bucket containing v.
func bucketRange(bounds []float64, v float64) (lo, hi float64) {
	i := sort.SearchFloat64s(bounds, v)
	if i >= len(bounds) {
		return bounds[len(bounds)-1], math.Inf(1)
	}
	if i == 0 {
		return 0, bounds[0]
	}
	return bounds[i-1], bounds[i]
}

func TestHistogramQuantileEdgeCases(t *testing.T) {
	h := NewHistogram("e", []float64{1, 2})
	if got := h.Quantile(0.99); got != 0 {
		t.Errorf("empty histogram quantile = %g, want 0", got)
	}
	h.Observe(10) // +Inf bucket only
	if got := h.Quantile(0.99); got != 2 {
		t.Errorf("+Inf-only quantile = %g, want highest finite bound 2", got)
	}
	var nilH *Histogram
	nilH.Observe(1) // must not panic
	if nilH.Quantile(0.5) != 0 || nilH.Count() != 0 || nilH.Sum() != 0 {
		t.Error("nil histogram must report zeros")
	}
	if err := nilH.Merge(h); err != nil {
		t.Error("nil merge must be a no-op")
	}
}

// TestHistogramConcurrentObserve drives concurrent observers under -race
// and checks nothing is lost.
func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram("c", LatencyBuckets)
	const goroutines, per = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				h.Observe(rng.Float64())
			}
		}(int64(g))
	}
	wg.Wait()
	if got := h.Count(); got != goroutines*per {
		t.Fatalf("Count = %d, want %d", got, goroutines*per)
	}
	if s := h.Sum(); s <= 0 || s >= goroutines*per {
		t.Fatalf("Sum = %g out of range", s)
	}
}

// TestHistogramExpositionCumulative checks the Prometheus rendering:
// le-labeled buckets are cumulative and monotone, ending at +Inf == _count.
func TestHistogramExpositionCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "test", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.5, 3, 9} {
		h.Observe(v)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`lat_seconds_bucket{le="1"} 1`,
		`lat_seconds_bucket{le="2"} 2`,
		`lat_seconds_bucket{le="4"} 3`,
		`lat_seconds_bucket{le="+Inf"} 4`,
		`lat_seconds_count 4`,
		"# TYPE lat_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}
