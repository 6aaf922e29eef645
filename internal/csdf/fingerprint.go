package csdf

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// Fingerprint returns a 256-bit structural hash of the graph, suitable as a
// memoization key for analysis results.
//
// Two graphs share a fingerprint exactly when they were built from the same
// sequence of tasks (per-phase durations) and buffers (endpoints, rate
// vectors, initial markings, capacities) in the same insertion order. Names
// — of the graph, of tasks, of buffers — are deliberately excluded: every
// analysis in this repository is name-blind, so a renamed copy of a graph
// must hit the same cache entry. The hash is not isomorphism-canonical
// (permuting task insertion order changes it), which is sound for caching:
// equal fingerprints imply structurally identical inputs and therefore
// identical analysis results.
func (g *Graph) Fingerprint() [32]byte {
	h := sha256.New()
	// The int64s are batched into buf and hashed one full buffer at a
	// time: the hashed byte stream is the same as one Write per value.
	var buf [512]byte
	n := 0
	wi := func(v int64) {
		if n == len(buf) {
			h.Write(buf[:])
			n = 0
		}
		binary.LittleEndian.PutUint64(buf[n:], uint64(v))
		n += 8
	}
	wv := func(vs []int64) {
		wi(int64(len(vs)))
		for _, v := range vs {
			wi(v)
		}
	}
	wi(int64(len(g.tasks)))
	for i := range g.tasks {
		wv(g.tasks[i].Durations)
	}
	wi(int64(len(g.buffers)))
	for i := range g.buffers {
		b := &g.buffers[i]
		wi(int64(b.Src))
		wi(int64(b.Dst))
		wv(b.In)
		wv(b.Out)
		wi(b.Initial)
		wi(b.Capacity)
	}
	h.Write(buf[:n])
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// FingerprintHex returns Fingerprint as a lowercase hex string.
func (g *Graph) FingerprintHex() string {
	fp := g.Fingerprint()
	var s [2 * len(fp)]byte
	hex.Encode(s[:], fp[:])
	return string(s[:])
}
