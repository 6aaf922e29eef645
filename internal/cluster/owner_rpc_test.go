package cluster

import (
	"context"
	"maps"
	"testing"

	"kiter/internal/csdf"
	"kiter/internal/engine"
	"kiter/internal/gen"
)

// TestOneOwnerRPC pins the fleet's wire contract by counting the
// /cluster/* requests every replica receives, per sender and path:
//
//   - a cold submission through a non-owner sends exactly one
//     /cluster/evaluate, to the owner, and no cache read;
//   - a miss on a key the submitting replica owns sends exactly one
//     /cluster/cache/get, to the ring successor;
//   - a warm local hit sends nothing.
func TestOneOwnerRPC(t *testing.T) {
	reps := startCacheFleet(t, 3)
	r0 := reps[0]
	// successor is the owner of fp once member is left out of the ring.
	successor := func(member, fp string) string {
		return r0.cl.ring.owner(fp, func(m string) bool { return m != member })
	}
	// fleetCalls drains every replica's counter into one map keyed by
	// receiver as well as sender and path.
	type call struct{ from, to, path string }
	fleetCalls := func() map[call]int {
		out := map[call]int{}
		for _, r := range reps {
			for c, n := range r.calls.take() {
				out[call{c.from, r.addr, c.path}] += n
			}
		}
		return out
	}
	submit := func(g *csdf.Graph) *engine.Result {
		t.Helper()
		res, err := r0.eng.Submit(context.Background(), &engine.Request{Graph: g, Method: engine.MethodKIter})
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		if res.Throughput == nil || !res.Throughput.Optimal {
			t.Fatalf("bad result: %+v", res)
		}
		return res
	}

	// One graph another member owns, one graph replica 0 owns itself.
	var remote, own *csdf.Graph
	for d := int64(1); remote == nil || own == nil; d++ {
		if d > 200 {
			t.Fatal("no graph family member landed on both kinds of owner")
		}
		g := gen.TwoTaskChain(d, 1)
		if r0.cl.Owner(g.FingerprintHex()) == r0.addr {
			if own == nil {
				own = g
			}
		} else if remote == nil {
			remote = g
		}
	}
	fleetCalls() // discard anything sent while the fleet came up

	// Cold, owned elsewhere: replica 0 sends one forward to the owner and
	// nothing else. The owner's own traffic is its self-owned miss: one
	// successor read.
	owner := r0.cl.Owner(remote.FingerprintHex())
	submit(remote)
	if got, want := fleetCalls(), (map[call]int{
		{r0.addr, owner, "/cluster/evaluate"}:                                    1,
		{owner, successor(owner, remote.FingerprintHex()), "/cluster/cache/get"}: 1,
	}); !maps.Equal(got, want) {
		t.Fatalf("cold non-owned submission: fleet traffic %v, want %v", got, want)
	}

	// Cold, owned by replica 0: one read at the ring successor.
	submit(own)
	if got, want := fleetCalls(), map[call]int{{r0.addr, successor(r0.addr, own.FingerprintHex()), "/cluster/cache/get"}: 1}; !maps.Equal(got, want) {
		t.Fatalf("self-owned miss: fleet traffic %v, want %v", got, want)
	}

	// Warm: both results now sit in replica 0's memory tier.
	for _, g := range []*csdf.Graph{remote, own} {
		if res := submit(g); !res.CacheHit {
			t.Fatalf("resubmission of %s missed the local cache", g.Name)
		}
	}
	if got := fleetCalls(); len(got) != 0 {
		t.Fatalf("warm local hits: fleet traffic %v, want none", got)
	}
	if evals := fleetEvaluations(reps); evals != 2 {
		t.Fatalf("fleet evaluations = %d, want 2", evals)
	}
}
