package main

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// The host's speed drifts: on a virtual machine that shares its physical
// cores with other tenants, a fixed loop of this file's work ran 40% faster
// in one minute than in the next, and kiterd's throughput moved with it.
// Each end-to-end time metric is therefore measured against the host speed
// of the moment: the measured window pauses the load once a second and runs
// a fixed calibration loop, and every time is scaled to what it would have
// been on a host running that loop at referenceSpeed. The loop uses the
// standard library only, so a change to the program cannot move it.
const (
	// referenceSpeed is the reference host's calibration rate, in units
	// per second per goroutine; it fixes the scale of the scaled metrics
	// and is about what a 2-vCPU Xeon virtual machine does.
	referenceSpeed = 6000
	// calibSpan is how long one calibration runs.
	calibSpan = 200 * time.Millisecond
)

// calibUnit is one unit of calibration work: fill a slice with xorshift
// values, sort it, and fold every eighth value into a small map. It
// allocates, branches, hashes and touches 16 KB, as request handling does.
func calibUnit(seed uint64) uint64 {
	xs := make([]uint64, 2048)
	x := seed | 1
	for i := range xs {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		xs[i] = x
	}
	slices.Sort(xs)
	m := make(map[uint64]uint64, 256)
	for i := 0; i < len(xs); i += 8 {
		m[xs[i]%1021] += xs[i]
	}
	var s uint64
	for k, v := range m {
		s += k ^ v
	}
	return s
}

// calibSink keeps the compiler from dropping calibration work.
var calibSink atomic.Uint64

// calibrate runs calibration units on the given number of goroutines for d
// and returns the rate in units per second per goroutine.
func calibrate(d time.Duration, goroutines int) float64 {
	var units atomic.Int64
	start := time.Now()
	end := start.Add(d)
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var s uint64
			for i := uint64(g); time.Now().Before(end); i += uint64(goroutines) {
				s += calibUnit(i)
				units.Add(1)
			}
			calibSink.Add(s)
		}()
	}
	wg.Wait()
	return float64(units.Load()) / time.Since(start).Seconds() / float64(goroutines)
}

// atReference scales a duration measured while the host ran calibration at
// speed to the reference host: slower hosts shrink it, faster ones grow it.
func atReference(d, speed float64) float64 { return d * speed / referenceSpeed }
