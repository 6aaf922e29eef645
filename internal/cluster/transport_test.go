package cluster

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestDefaultClientTransportSizedToWorkers pins the regression where the
// default forwarding client was a bare http.Client inheriting
// DefaultTransport's MaxIdleConnsPerHost of 2: with a W-worker engine
// forwarding concurrently to one owner, every request past 2 in flight
// paid a fresh dial and left a TIME_WAIT socket behind.
func TestDefaultClientTransportSizedToWorkers(t *testing.T) {
	cfg := Config{Self: "a:1", Peers: []string{"b:1", "c:1"}, Workers: 32}.withDefaults()
	tr, ok := cfg.Client.Transport.(*http.Transport)
	if !ok {
		t.Fatalf("default client transport is %T, want *http.Transport", cfg.Client.Transport)
	}
	if tr.MaxIdleConnsPerHost < 32 {
		t.Fatalf("MaxIdleConnsPerHost = %d, want >= Workers (32)", tr.MaxIdleConnsPerHost)
	}
	if tr.MaxIdleConns < tr.MaxIdleConnsPerHost*2 {
		t.Fatalf("MaxIdleConns = %d cannot hold %d idle conns for 2 peers",
			tr.MaxIdleConns, tr.MaxIdleConnsPerHost*2)
	}
	if tr.IdleConnTimeout <= 0 || tr.TLSHandshakeTimeout <= 0 {
		t.Fatalf("transport missing timeouts: idle=%v tls=%v", tr.IdleConnTimeout, tr.TLSHandshakeTimeout)
	}

	// An explicit client (tests, custom TLS) still wins.
	custom := &http.Client{}
	if got := (Config{Self: "a:1", Client: custom}).withDefaults().Client; got != custom {
		t.Fatal("explicit Client overridden by default transport")
	}
}

// TestForwardConnectionReuse drives the cluster's default client with
// rounds of concurrent requests against one host — the forwarding pattern
// of a sweep fanning out to its owner replica — and asserts the pool
// carries connections across rounds. Under the old bare client only 2
// idle connections survived between rounds, so the server saw about
// 2 + (c−2)·rounds connections: 32 for c = 8 and 5 rounds. The bound is
// 2·c, not c: a request can dial a fresh connection while another
// round's connection is still on its way back to the idle pool, so a few
// extra dials are a race, not churn.
func TestForwardConnectionReuse(t *testing.T) {
	var conns atomic.Int64
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		fmt.Fprint(w, "{}")
	}))
	ts.Config.ConnState = func(c net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()

	const concurrency, rounds = 8, 5
	cfg := Config{Self: "self:1", Workers: concurrency}.withDefaults()
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for i := 0; i < concurrency; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := cfg.Client.Post(ts.URL, "application/json", strings.NewReader(`{}`))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}()
		}
		wg.Wait()
	}
	churn := 2 + (concurrency-2)*rounds
	if got := conns.Load(); got > 2*concurrency {
		t.Fatalf("server saw %d connections for %d rounds × %d concurrent requests; "+
			"want <= %d (the old transport's churn is ~%d)", got, rounds, concurrency, 2*concurrency, churn)
	}
}
