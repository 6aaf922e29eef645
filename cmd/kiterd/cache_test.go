package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"kiter/internal/engine"
	"kiter/internal/sweep"
)

// TestSweepRestartServesFromDisk is the warm-restart acceptance path: a
// kiterd with -cache-dir runs a sweep, "restarts" (engine and backend torn
// down, new ones opened over the same directory), reruns the same sweep,
// and answers every scenario from the disk tier — proven by the per-tier
// hit counters on /stats.
func TestSweepRestartServesFromDisk(t *testing.T) {
	dir := t.TempDir()
	spec, err := json.Marshal(sweep.VideoPipelineSpec(3, 3))
	if err != nil {
		t.Fatal(err)
	}

	runSweep := func() (*sweep.Envelope, engine.Stats) {
		t.Helper()
		backend, err := buildCache(1024, dir, 1<<20, nil)
		if err != nil {
			t.Fatal(err)
		}
		e := engine.New(engine.Config{Workers: 4, CacheBackend: backend})
		defer e.Close() // the "process exit": also closes the disk store
		tmpl := testTemplate()
		tmpl.Method = engine.MethodKIter
		srv := newServer(e, tmpl, nil, observability{})
		code, points, env := postSweep(t, srv, spec)
		if code != http.StatusOK || env == nil {
			t.Fatalf("sweep failed: status %d, envelope %v", code, env)
		}
		if len(points) != env.Scenarios || env.Failed != 0 {
			t.Fatalf("sweep streamed %d points, envelope %+v", len(points), env)
		}
		// Per-tier counters via the HTTP surface, as an operator sees them.
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
		var s engine.Stats
		if err := json.Unmarshal(rec.Body.Bytes(), &s); err != nil {
			t.Fatalf("/stats not decodable: %v", err)
		}
		return env, s
	}

	env1, stats1 := runSweep()
	tiers1 := tiersByName(t, stats1)
	if tiers1["disk"].Hits != 0 {
		t.Fatalf("cold run reported disk hits: %+v", tiers1)
	}
	if tiers1["disk"].Entries == 0 || tiers1["disk"].Bytes == 0 {
		t.Fatalf("cold run persisted nothing: %+v", tiers1)
	}

	env2, stats2 := runSweep()
	tiers2 := tiersByName(t, stats2)
	if tiers2["disk"].Hits == 0 {
		t.Fatalf("restarted sweep answered nothing from disk: %+v", tiers2)
	}
	// Every distinct scenario of the rerun must come from disk: the fresh
	// memory tier misses, the disk tier hits, and nothing is re-evaluated.
	if stats2.Evaluations != 0 {
		t.Fatalf("restarted sweep re-evaluated %d scenarios", stats2.Evaluations)
	}
	if tiers2["memory"].Misses == 0 {
		t.Fatalf("restart should start with a cold memory tier: %+v", tiers2)
	}
	if env2.MinThroughput != env1.MinThroughput || env2.MaxThroughput != env1.MaxThroughput {
		t.Fatalf("disk-served envelope drifted: %+v vs %+v", env2, env1)
	}
}

// TestBuildCacheTiers: -cache 0 means the default memory capacity on every
// path, so with -cache-dir the memory tier still sits over disk; only a
// negative -cache drops the memory tier.
func TestBuildCacheTiers(t *testing.T) {
	for _, tc := range []struct {
		capacity int
		dir      bool
		want     []string
	}{
		{0, true, []string{"memory", "disk"}},
		{0, false, []string{"memory"}},
		{4096, true, []string{"memory", "disk"}},
		{-1, true, []string{"disk"}},
	} {
		dir := ""
		if tc.dir {
			dir = t.TempDir()
		}
		backend, err := buildCache(tc.capacity, dir, 1<<20, nil)
		if err != nil {
			t.Fatal(err)
		}
		e := engine.New(engine.Config{Workers: 1, CacheBackend: backend})
		var got []string
		for _, ts := range e.Stats().CacheTiers {
			got = append(got, ts.Tier)
		}
		e.Close()
		if !slices.Equal(got, tc.want) {
			t.Errorf("-cache %d, cache dir %v: tiers %v, want %v", tc.capacity, tc.dir, got, tc.want)
		}
	}
}

func tiersByName(t *testing.T, s engine.Stats) map[string]engine.CacheTierStats {
	t.Helper()
	if len(s.CacheTiers) == 0 {
		t.Fatalf("stats carry no cache tiers: %+v", s)
	}
	out := map[string]engine.CacheTierStats{}
	for _, ts := range s.CacheTiers {
		out[ts.Tier] = ts
	}
	return out
}
