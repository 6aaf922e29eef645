package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sync"
	"testing"

	"kiter/internal/sdf3x"
	"kiter/internal/telemetry"
)

// TestForwardReleasesDecoderBuffer checks that a forwarding replica's
// decoder buffer goes back to the pool only once the forward has copied
// the graph's bytes out of it. Forwards of distinct graphs run while other
// goroutines read junk bodies through the pool, which hands released
// buffers out again and overwrites them. Under -race a forward that reads
// a released buffer races with that write; without it, the owner receives
// junk or another request's graph, and the answer's fingerprint is wrong.
func TestForwardReleasesDecoderBuffer(t *testing.T) {
	fleet := wiredFleet(t, 0)
	a, b := fleet[0], fleet[1]
	graphs := ownedGraphs(t, a, b.addr(), 32)
	bodies := make([][]byte, len(graphs))
	for i, g := range graphs {
		bodies[i] = jsonGraph(t, g)
	}
	junk := bytes.Repeat([]byte{'#'}, 2*len(bodies[len(bodies)-1]))
	stop := make(chan struct{})
	var churn, forwards sync.WaitGroup
	for range 2 {
		churn.Add(1)
		go func() {
			defer churn.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, err := sdf3x.ReadRequest(bytes.NewReader(junk), int64(len(junk))); err == nil {
					t.Error("junk body decoded")
				}
			}
		}()
	}
	for i, g := range graphs {
		forwards.Add(1)
		go func() {
			defer forwards.Done()
			w := record(t, a.srv, http.MethodPost, "/analyze", bodies[i])
			var doc analyzeResponse
			if err := json.Unmarshal(w.Body.Bytes(), &doc); w.Code != http.StatusOK || err != nil {
				t.Errorf("/analyze %s: %d %s", g.Name, w.Code, w.Body)
				return
			}
			if doc.Result.Peer != b.addr() || doc.Result.Fingerprint != g.FingerprintHex() || doc.Result.Graph != g.Name {
				t.Errorf("%s answered by %q for %.12s as %q, want a forward to %s",
					g.Name, doc.Result.Peer, doc.Result.Fingerprint, doc.Result.Graph, b.addr())
			}
		}()
	}
	forwards.Wait()
	close(stop)
	churn.Wait()
	if st := a.e.Stats(); st.Evaluations != 0 || st.RemoteResults != uint64(len(graphs)) {
		t.Fatalf("forwarding replica: %d local evaluations, %d remote results, want 0 and %d",
			st.Evaluations, st.RemoteResults, len(graphs))
	}
}

// TestStitchedForwardSkipsSuccessorInSteadyState checks what the fleet=1
// stitch of a forwarded miss shows: while the owner's warm-start window
// is open, its miss reads the ring successor under a cache.fleet.get
// span; once a run of 204s has closed the window, the owner's miss makes
// no successor read and the stitched tree has no such span.
func TestStitchedForwardSkipsSuccessorInSteadyState(t *testing.T) {
	fleet := wiredFleet(t, 0)
	a, b := fleet[0], fleet[1]
	hasFleetGet := func(tid string) bool {
		code, body := a.do(t, http.MethodGet, "/debug/traces/"+tid+"?fleet=1", nil)
		if code != http.StatusOK {
			t.Fatalf("stitch %s: %d %s", tid, code, body)
		}
		var st struct {
			Processes []string              `json:"processes"`
			Spans     []*telemetry.SpanNode `json:"spans"`
		}
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if len(st.Processes) != 2 {
			t.Fatalf("stitch %s spans processes %v, want both replicas", tid, st.Processes)
		}
		found := false
		walkSpans(st.Spans, func(n *telemetry.SpanNode) { found = found || n.Name == "cache.fleet.get" })
		return found
	}
	// Every graph is new to the fleet, so each forward is a miss at b.
	graphs := ownedGraphs(t, a, b.addr(), 160)
	closedAt := -1
	for i, g := range graphs {
		w := record(t, a.srv, http.MethodPost, "/analyze", jsonGraph(t, g))
		if w.Code != http.StatusOK {
			t.Fatalf("/analyze %s: %d %s", g.Name, w.Code, w.Body)
		}
		read := hasFleetGet(w.Header().Get(traceIDHeader))
		switch {
		case i == 0 && !read:
			t.Fatal("first forwarded miss on a fresh fleet left no cache.fleet.get span")
		case closedAt >= 0 && read:
			t.Fatalf("forwarded miss %d read the successor after miss %d found the window closed", i, closedAt)
		case closedAt < 0 && !read:
			closedAt = i
		}
	}
	if closedAt < 0 {
		t.Fatalf("the warm-start window never closed over %d forwarded misses", len(graphs))
	}
}
