package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "request", Start: 0, End: 100},
		// Two overlapping children cover [10, 50); a third sticks out of
		// the parent and counts only up to the parent's end.
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 50},
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		// A grandchild is charged to its own parent only.
		{ID: 5, Parent: 2, Name: "a.1", Start: 15, End: 25},
		{ID: 6, Name: "other", Start: 0, End: 7},
	}
	want := map[int64]time.Duration{1: 100 - 40 - 10, 2: 30 - 10, 3: 20, 4: 30, 5: 10, 6: 7}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d: self time %d, want %d", id, got[id], w)
		}
	}
}

func TestCoveredDisjointAndNested(t *testing.T) {
	p := span{Start: 0, End: 100}
	cases := []struct {
		kids []span
		want time.Duration
	}{
		{nil, 0},
		{[]span{{Start: 0, End: 10}, {Start: 20, End: 30}}, 20},
		{[]span{{Start: 0, End: 50}, {Start: 10, End: 20}}, 50},
		{[]span{{Start: -5, End: 5}, {Start: 95, End: 200}}, 10},
		{[]span{{Start: 200, End: 300}}, 0},
	}
	for i, c := range cases {
		if got := covered(p, c.kids); got != c.want {
			t.Errorf("case %d: covered %d, want %d", i, got, c.want)
		}
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *tracer
	id, start := tr.begin()
	tr.end(id, 0, 1, "x", start)
	tr.add(0, 1, "y", time.Now(), time.Second)
	if id != 0 || !start.IsZero() {
		t.Fatalf("nil tracer began span %d at %v", id, start)
	}
}

func TestQuartileMatchesPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) ==
	// [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for k, want := range map[int]float64{1: 2.75, 2: 5.5, 3: 8.25} {
		if got := quartile(xs, k); got != want {
			t.Errorf("quartile %d = %v, want %v", k, got, want)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	p99 := quantile(xs, 0.99)
	if p99 != 990 || beyond(xs, p99) != 10 {
		t.Fatalf("p99 of 1…1000 = %v with %d beyond, want 990 with 10", p99, beyond(xs, p99))
	}
}
