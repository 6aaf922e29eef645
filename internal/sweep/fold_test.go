package sweep

import (
	"fmt"
	"math/big"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"kiter/internal/engine"
)

// bigFold is the reference envelope fold: min, max and the Pareto
// candidates compared as math/big rationals parsed by big.Rat.SetString.
func bigFold(x *Expansion, points []Point) Envelope {
	env := Envelope{Scenarios: x.Total(), ArgMinIndex: -1, ArgMaxIndex: -1}
	type cand struct {
		point ParetoPoint
		rat   *big.Rat
	}
	var min, max *big.Rat
	var cands []cand
	for _, p := range points {
		if p.Error != "" {
			env.Failed++
			continue
		}
		env.Completed++
		t := p.Result.Throughput
		if t == nil || t.Error != "" || t.Throughput == "" {
			if t != nil && t.Error != "" {
				env.AnalysisErrors++
			}
			continue
		}
		r, ok := new(big.Rat).SetString(t.Throughput)
		if !ok {
			continue
		}
		if min == nil || r.Cmp(min) < 0 || r.Cmp(min) == 0 && p.Scenario < env.ArgMinIndex {
			min = r
			env.MinThroughput, env.MaxPeriod, env.ArgMin, env.ArgMinIndex = t.Throughput, t.Period, p.Params, p.Scenario
		}
		if max == nil || r.Cmp(max) > 0 || r.Cmp(max) == 0 && p.Scenario < env.ArgMaxIndex {
			max = r
			env.MaxThroughput, env.MinPeriod, env.ArgMax, env.ArgMaxIndex = t.Throughput, t.Period, p.Params, p.Scenario
		}
		if x.paretoAxis >= 0 {
			cands = append(cands, cand{ParetoPoint{p.Scenario, x.Values(p.Scenario)[x.paretoAxis], t.Throughput, p.Params}, r})
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].point.Axis != cands[b].point.Axis {
			return cands[a].point.Axis < cands[b].point.Axis
		}
		if c := cands[a].rat.Cmp(cands[b].rat); c != 0 {
			return c > 0
		}
		return cands[a].point.Scenario < cands[b].point.Scenario
	})
	var best *big.Rat
	lastAxis := int64(0)
	for _, c := range cands {
		if best != nil && c.point.Axis == lastAxis {
			continue
		}
		if best == nil || c.rat.Cmp(best) > 0 {
			env.Pareto = append(env.Pareto, c.point)
			best = c.rat
			lastAxis = c.point.Axis
		}
	}
	return env
}

// randomThroughput draws a throughput string from a small pool, so equal
// values recur on different scenarios, mixing int64 fractions, values
// beyond int64, integers and spellings only big.Rat reads canonically.
func randomThroughput(rng *rand.Rand) string {
	huge := new(big.Int).Lsh(big.NewInt(1), 70)
	switch rng.Intn(9) {
	case 0:
		return fmt.Sprintf("%s/%d", new(big.Int).Add(huge, big.NewInt(int64(rng.Intn(3)))), 3+rng.Intn(2))
	case 1:
		return fmt.Sprintf("1/%s", new(big.Int).Add(huge, big.NewInt(int64(rng.Intn(3)))))
	case 2:
		return fmt.Sprint(rng.Intn(3)) // integers, zero included
	case 3:
		return fmt.Sprintf("%d/%d", 2*(1+rng.Intn(2)), 4) // 2/4 and 4/4: unreduced
	case 4:
		return []string{"9223372036854775807/2", "9223372036854775807/9223372036854775806", "-9223372036854775808/3", "1/9223372036854775807"}[rng.Intn(4)]
	case 5:
		return []string{"010/3", "0x10/3", "1.5", "+1/3", "1/-3", "1/0", "junk"}[rng.Intn(7)]
	}
	return fmt.Sprintf("%d/%d", 1+rng.Intn(4), 1+rng.Intn(6))
}

// TestFoldMatchesBigRatReference folds random points in random completion
// orders with the int64 fold and with the math/big reference: the
// envelopes, Pareto front included, must be identical.
func TestFoldMatchesBigRatReference(t *testing.T) {
	withAxis := mustCompile(t, VideoPipelineSpec(6, 6))
	noAxisSpec := VideoPipelineSpec(6, 6)
	noAxisSpec.Pareto = ""
	noAxis := mustCompile(t, noAxisSpec)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 400; trial++ {
		x := withAxis
		if trial%4 == 3 {
			x = noAxis
		}
		var points []Point
		for _, i := range rng.Perm(x.Total())[:1+rng.Intn(x.Total())] {
			p := Point{Scenario: i, Params: x.Assignment(i)}
			switch rng.Intn(10) {
			case 0:
				p.Error = "materialize: rate 0"
			case 1:
				p.Result = &engine.Result{Throughput: &engine.ThroughputResult{Error: "deadlock"}}
			case 2:
				p.Result = &engine.Result{}
			default:
				tp := randomThroughput(rng)
				p.Result = &engine.Result{Throughput: &engine.ThroughputResult{Throughput: tp, Period: "P" + tp}}
			}
			points = append(points, p)
		}
		f := newFold(x)
		for _, p := range points {
			f.add(p)
		}
		f.finish()
		if want := bigFold(x, points); !reflect.DeepEqual(f.env, want) {
			t.Fatalf("trial %d: int64 fold\n%+v\nbig.Rat reference\n%+v", trial, f.env, want)
		}
	}
}

// TestFoldAddAllocations pins the fold of an int64 throughput at no
// allocation beyond the Pareto candidate list.
func TestFoldAddAllocations(t *testing.T) {
	x := mustCompile(t, VideoPipelineSpec(2, 2))
	f := newFold(x)
	p := Point{Scenario: 1, Params: x.Assignment(1),
		Result: &engine.Result{Throughput: &engine.ThroughputResult{Throughput: "12/345", Period: "345/12"}}}
	f.paretos = make([]paretoCand, 0, 200)
	if allocs := testing.AllocsPerRun(100, func() { f.add(p) }); allocs != 0 {
		t.Errorf("fold.add allocates %.0f objects per int64 throughput, want 0", allocs)
	}
}
