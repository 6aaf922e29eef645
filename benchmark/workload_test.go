package main

import (
	"bytes"
	"testing"

	"kiter/internal/sdf3x"
	"kiter/internal/sweep"
)

func TestSameSeedSameBodies(t *testing.T) {
	for _, name := range workloadNames {
		a, err := newWorkload(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newWorkload(name, 7)
		c, _ := newWorkload(name, 8)
		differ := 0
		for seq := uint64(0); seq < 500; seq++ {
			ra, rb, rc := a.request(seq), b.request(seq), c.request(seq)
			if !bytes.Equal(ra.body, rb.body) || ra.path != rb.path {
				t.Fatalf("%s: seed 7 request %d differs between two generators", name, seq)
			}
			if !bytes.Equal(ra.body, rc.body) {
				differ++
			}
		}
		if differ < 250 {
			t.Errorf("%s: seeds 7 and 8 share %d of 500 bodies", name, 500-differ)
		}
	}
}

func TestColdGraphsDistinctAndValid(t *testing.T) {
	for _, name := range []string{analyzeCold, fleetMixed} {
		w, err := newWorkload(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]uint64{}
		for seq := uint64(0); seq < 3000; seq++ {
			req := w.request(seq)
			if req.warm {
				continue
			}
			g, err := sdf3x.ReadJSON(bytes.NewReader(req.body))
			if err != nil {
				t.Fatalf("%s request %d (%s): %v", name, seq, w.bases[req.base].name, err)
			}
			fp := g.FingerprintHex()
			if prev, dup := seen[fp]; dup {
				t.Fatalf("%s: requests %d and %d share fingerprint %s", name, prev, seq, fp)
			}
			seen[fp] = seq
		}
	}
}

func TestWarmPoolFitsCache(t *testing.T) {
	w, err := newWorkload(analyzeWarm, 1)
	if err != nil {
		t.Fatal(err)
	}
	pool := w.warmPool()
	fps := map[string]bool{}
	for _, req := range pool {
		g, err := sdf3x.ReadJSON(bytes.NewReader(req.body))
		if err != nil {
			t.Fatal(err)
		}
		fps[g.FingerprintHex()] = true
	}
	// kiterd's default memo cache holds 4096 entries; the pool must stay
	// near a tenth of it so nothing is evicted.
	if len(fps) != len(pool) || len(pool) > 4096/10 {
		t.Fatalf("warm pool: %d bodies, %d fingerprints, want ≤ %d distinct", len(pool), len(fps), 4096/10)
	}
	inPool := map[string]bool{}
	for _, req := range pool {
		inPool[string(req.body)] = true
	}
	for seq := uint64(0); seq < 1000; seq++ {
		if !inPool[string(w.request(seq).body)] {
			t.Fatalf("warm request %d is not in the primed pool", seq)
		}
	}
}

func TestGroupWeights(t *testing.T) {
	w, err := newWorkload(analyzeCold, 5)
	if err != nil {
		t.Fatal(err)
	}
	count := map[string]int{}
	n := uint64(len(w.cycle))
	for seq := uint64(0); seq < n; seq++ {
		count[w.bases[w.request(seq).base].group]++
	}
	if count["table1"] != 2*count["multiround"] || count["multiround"] != count["table2"] {
		t.Fatalf("one schedule cycle sends %v, want 2:1:1", count)
	}
}

func TestSweepsShareHalfTheirScenarios(t *testing.T) {
	w, err := newWorkload(sweepDSE, 2)
	if err != nil {
		t.Fatal(err)
	}
	scenarios := func(body []byte) map[string]bool {
		spec, err := sweep.ParseSpec(body)
		if err != nil {
			t.Fatal(err)
		}
		x, err := sweep.Compile(spec, false)
		if err != nil {
			t.Fatal(err)
		}
		if x.Total() != sweepDurations*sweepTokens {
			t.Fatalf("sweep has %d scenarios, want %d", x.Total(), sweepDurations*sweepTokens)
		}
		out := map[string]bool{}
		for i := range x.Total() {
			g, err := x.Materialize(i)
			if err != nil {
				t.Fatal(err)
			}
			out[g.FingerprintHex()] = true
		}
		return out
	}
	last := map[int]map[string]bool{}
	pairs := 0
	for seq := uint64(0); seq < 100; seq++ {
		req := w.request(seq)
		cur := scenarios(req.body)
		// A new block moves to the next multiplier and shares nothing.
		if prev, ok := last[req.base]; ok && req.variant%sweepBlock != 0 {
			pairs++
			shared := 0
			for fp := range cur {
				if prev[fp] {
					shared++
				}
			}
			if shared != len(cur)/2 {
				t.Errorf("sweep %d shares %d scenarios with the previous sweep on its base, want %d", seq, shared, len(cur)/2)
			}
		}
		last[req.base] = cur
	}
	if pairs < 60 {
		t.Fatalf("only %d consecutive sweep pairs compared", pairs)
	}
}
