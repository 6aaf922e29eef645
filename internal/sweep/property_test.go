package sweep

import (
	"context"
	"encoding/json"
	"math/big"
	"sync"
	"testing"

	"kiter/internal/engine"
)

// TestPropertySweepMatchesDirectSubmit is the subsystem's core contract:
// for random parametric specs, every sweep point is exactly the result an
// independent engine.Submit of the materialized scenario produces —
// throughput as an exact rational, winning method, optimality flag and
// per-section error — and the envelope min/max match a brute-force fold
// over the direct results. The sweep engine and the reference engine are
// separate instances, so shared caching cannot mask a divergence.
func TestPropertySweepMatchesDirectSubmit(t *testing.T) {
	if testing.Short() {
		t.Skip("property sweep is not short")
	}
	const seeds = 12
	for seed := int64(1); seed <= seeds; seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			t.Parallel()
			spec, err := RandomSpec(seed)
			if err != nil {
				t.Skipf("seed %d: no base graph: %v", seed, err)
			}
			spec.Method = "kiter" // exact results from one method
			// Round-trip through the wire form, as /sweep would.
			data, err := json.Marshal(spec)
			if err != nil {
				t.Fatal(err)
			}
			parsed, err := ParseSpec(data)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			x, err := Compile(parsed, false)
			if err != nil {
				t.Fatalf("seed %d: random spec did not compile: %v", seed, err)
			}

			sweepEng := engine.New(engine.Config{Workers: 4})
			defer sweepEng.Close()
			refEng := engine.New(engine.Config{Workers: 2})
			defer refEng.Close()

			var mu sync.Mutex
			points := map[int]Point{}
			r := Runner{Engine: sweepEng}
			env, err := r.Run(context.Background(), x, func(p Point) error {
				mu.Lock()
				defer mu.Unlock()
				if _, dup := points[p.Scenario]; dup {
					t.Errorf("scenario %d emitted twice", p.Scenario)
				}
				points[p.Scenario] = p
				return nil
			})
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if len(points) != x.Total() {
				t.Fatalf("seed %d: %d points for %d scenarios", seed, len(points), x.Total())
			}

			// Brute-force reference fold.
			var bfMin, bfMax *big.Rat
			var bfCompleted, bfFailed, bfAnalysisErrs int
			for i := 0; i < x.Total(); i++ {
				p, ok := points[i]
				if !ok {
					t.Fatalf("seed %d: scenario %d never emitted", seed, i)
				}
				g, merr := x.Materialize(i)
				if merr != nil {
					bfFailed++
					if p.Error == "" {
						t.Fatalf("seed %d scenario %d: direct materialization failed (%v) but sweep point succeeded", seed, i, merr)
					}
					continue
				}
				want, werr := refEng.Submit(context.Background(), &engine.Request{
					Graph:  g,
					Method: engine.MethodKIter,
				})
				if werr != nil {
					t.Fatalf("seed %d scenario %d: direct submit: %v", seed, i, werr)
				}
				if p.Error != "" {
					t.Fatalf("seed %d scenario %d: sweep failed (%s) but direct submit succeeded", seed, i, p.Error)
				}
				bfCompleted++
				got := p.Result.Throughput
				ref := want.Throughput
				if (got == nil) != (ref == nil) {
					t.Fatalf("seed %d scenario %d: section mismatch: %+v vs %+v", seed, i, got, ref)
				}
				if got == nil {
					continue
				}
				if got.Error != ref.Error {
					t.Fatalf("seed %d scenario %d: error %q vs %q", seed, i, got.Error, ref.Error)
				}
				if got.Error != "" {
					bfAnalysisErrs++
					continue
				}
				if got.Method != ref.Method || got.Optimal != ref.Optimal {
					t.Fatalf("seed %d scenario %d: method/optimal %v/%v vs %v/%v",
						seed, i, got.Method, got.Optimal, ref.Method, ref.Optimal)
				}
				gr, ok1 := new(big.Rat).SetString(got.Throughput)
				rr, ok2 := new(big.Rat).SetString(ref.Throughput)
				if !ok1 || !ok2 || gr.Cmp(rr) != 0 {
					t.Fatalf("seed %d scenario %d: throughput %q vs %q", seed, i, got.Throughput, ref.Throughput)
				}
				gp, ok1 := new(big.Rat).SetString(got.Period)
				rp, ok2 := new(big.Rat).SetString(ref.Period)
				if !ok1 || !ok2 || gp.Cmp(rp) != 0 {
					t.Fatalf("seed %d scenario %d: period %q vs %q", seed, i, got.Period, ref.Period)
				}
				if bfMin == nil || gr.Cmp(bfMin) < 0 {
					bfMin = gr
				}
				if bfMax == nil || gr.Cmp(bfMax) > 0 {
					bfMax = gr
				}
			}

			if env.Completed != bfCompleted || env.Failed != bfFailed || env.AnalysisErrors != bfAnalysisErrs {
				t.Fatalf("seed %d: envelope counts %d/%d/%d vs brute force %d/%d/%d",
					seed, env.Completed, env.Failed, env.AnalysisErrors, bfCompleted, bfFailed, bfAnalysisErrs)
			}
			checkBound := func(name, got string, want *big.Rat) {
				if want == nil {
					if got != "" {
						t.Fatalf("seed %d: envelope %s = %q with no successful points", seed, name, got)
					}
					return
				}
				gr, ok := new(big.Rat).SetString(got)
				if !ok || gr.Cmp(want) != 0 {
					t.Fatalf("seed %d: envelope %s = %q, brute force %s", seed, name, got, want.RatString())
				}
			}
			checkBound("minThroughput", env.MinThroughput, bfMin)
			checkBound("maxThroughput", env.MaxThroughput, bfMax)
		})
	}
}
