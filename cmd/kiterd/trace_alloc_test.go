package main

import (
	"bytes"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"kiter/internal/csdf"
	"kiter/internal/engine"
	"kiter/internal/gen"
	"kiter/internal/sdf3x"
	"kiter/internal/telemetry"
)

// fewestAnalyzeAllocs returns the fewest allocations any of 30 POST
// /analyze requests of body makes through srv's ServeHTTP, each counted by
// testing.AllocsPerRun after its own warm-up request. Pooled scratch that
// the garbage collector or the race detector drops only ever adds
// allocations, so the fewest is the request's own steady count, and a
// difference between two servers does not depend on which pools happened
// to be emptied.
func fewestAnalyzeAllocs(t *testing.T, srv *server, body []byte) float64 {
	t.Helper()
	rb := rewindBody{bytes.NewReader(body)}
	req := httptest.NewRequest(http.MethodPost, "/analyze", rb)
	w := &discardWriter{h: http.Header{}}
	serve := func() {
		rb.Reset(body)
		w.code, w.n = 0, 0
		srv.ServeHTTP(w, req)
		if w.code != http.StatusOK || w.n == 0 {
			t.Fatalf("status %d, %d bytes", w.code, w.n)
		}
	}
	fewest := math.Inf(1)
	for i := 0; i < 30; i++ {
		fewest = min(fewest, testing.AllocsPerRun(1, serve))
	}
	return fewest
}

// tracingCost serves body through an untraced and a traced server over e
// and returns both allocation counts.
func tracingCost(t *testing.T, e *engine.Engine, body []byte) (plain, traced float64) {
	t.Helper()
	plain = fewestAnalyzeAllocs(t, newServer(e, testTemplate(), nil, observability{}), body)
	rec := telemetry.NewRecorder(256)
	traced = fewestAnalyzeAllocs(t, newServer(e, testTemplate(), nil, observability{recorder: rec}), body)
	if rec.Added() == 0 {
		t.Fatal("traced server recorded no trace")
	}
	t.Logf("untraced %.0f, traced %.0f allocations", plain, traced)
	return plain, traced
}

func compactBody(t *testing.T, g *csdf.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := sdf3x.WriteCompactJSON(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestAnalyzeWarmTracedAllocations is the traced twin of
// TestAnalyzeWarmAllocations: with a flight recorder running, a warm
// /analyze of the same body pays for its root and engine.submit spans, the
// cache.lookup record, the trace ID header and one encoded trace in the
// ring — at most 16 objects more than the same request untraced.
func TestAnalyzeWarmTracedAllocations(t *testing.T) {
	g, err := gen.Industrial(gen.IndustrialSpecs()[0])
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(engine.Config{Workers: 4})
	t.Cleanup(e.Close)
	plain, traced := tracingCost(t, e, compactBody(t, g))
	if st := e.Stats(); st.Evaluations != 1 {
		t.Fatalf("warm requests evaluated %d jobs, want only the first", st.Evaluations)
	}
	if traced > plain+16 {
		t.Errorf("traced warm /analyze allocates %.0f objects, untraced %.0f: tracing costs %.0f, want ≤ 16",
			traced, plain, traced-plain)
	}
}

// TestAnalyzeColdTracedAllocations pins what tracing adds to an /analyze
// that evaluates (cache off, one worker): at most 40 objects over the
// untraced request, on Figure 2 (one K-Iter round) and on KIterChain(16)
// (33 rounds, a Howard solve per changed component per round) alike.
// Rounds are leaf records named from a fixed table and solver attributes
// are unboxed, so the excess does not grow with rounds or solves.
func TestAnalyzeColdTracedAllocations(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *csdf.Graph
	}{
		{"figure2", gen.Figure2()},
		{"kiterchain16", gen.KIterChain(16)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := engine.New(engine.Config{Workers: 1, CacheCapacity: -1})
			t.Cleanup(e.Close)
			plain, traced := tracingCost(t, e, compactBody(t, tc.g))
			if traced > plain+40 {
				t.Errorf("traced cold /analyze allocates %.0f objects, untraced %.0f: tracing costs %.0f, want ≤ 40",
					traced, plain, traced-plain)
			}
		})
	}
}
