package main

import (
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// sweepStream renders a /sweep reply with n scenario lines, then tail.
func sweepStream(n int, tail string) []byte {
	var b strings.Builder
	for i := range n {
		fmt.Fprintf(&b, `{"scenario":%d,"params":{"d":1},"result":{"fingerprint":"f","throughput":{"period":"3/2","optimal":true,"method":"kiter"},"cacheHit":false,"deduped":false,"elapsedMs":0.1}}`+"\n", i)
	}
	b.WriteString(tail)
	return []byte(b.String())
}

func TestClassifySweep(t *testing.T) {
	envelope := `{"envelope":{"scenarios":4,"completed":4,"failed":0,"elapsedMs":2.5}}` + "\n"
	cases := []struct {
		name   string
		body   []byte
		failed int
	}{
		{"complete", sweepStream(4, envelope), 0},
		{"error line instead of envelope", sweepStream(2, `{"error":"context canceled"}`+"\n"), 4},
		{"no envelope", sweepStream(4, ""), 4},
		{"missing scenarios", sweepStream(3, envelope), 4},
		{"data after envelope", sweepStream(4, envelope+`{"scenario":9}`+"\n"), 4},
		{"scenario error", append(sweepStream(3, `{"scenario":3,"params":{},"error":"engine: too many pending jobs"}`+"\n"), envelope...), 1},
	}
	for _, c := range cases {
		var o outcome
		o.classifySweep(c.body, 4)
		if o.failed != c.failed {
			t.Errorf("%s: %d failed analyses (%q), want %d", c.name, o.failed, o.failure, c.failed)
		}
		if (o.failure == "") != (c.failed == 0) {
			t.Errorf("%s: failure %q with %d failed analyses", c.name, o.failure, o.failed)
		}
	}
	var o outcome
	o.classifySweep(sweepStream(4, envelope), 4)
	if len(o.points) != 4 || o.points[2].period != "3/2" || o.elapsedMS != 2.5 {
		t.Fatalf("complete stream parsed as %+v", o)
	}
}

// fakeKiterd answers /analyze after delay and tracks the connections and
// requests it sees at once.
type fakeKiterd struct {
	delay             time.Duration
	conns, maxConns   atomic.Int64
	active, maxActive atomic.Int64
}

func raise(peak *atomic.Int64, v int64) {
	for {
		p := peak.Load()
		if v <= p || peak.CompareAndSwap(p, v) {
			return
		}
	}
}

func (f *fakeKiterd) start(t *testing.T) *httptest.Server {
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		raise(&f.maxActive, f.active.Add(1))
		defer f.active.Add(-1)
		time.Sleep(f.delay)
		fmt.Fprint(w, `{"result":{"fingerprint":"f","throughput":{"period":"7","optimal":true,"method":"kiter"},"cacheHit":false,"deduped":false,"elapsedMs":0.5}}`)
	}))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		switch s {
		case http.StateNew:
			raise(&f.maxConns, f.conns.Add(1))
		case http.StateClosed, http.StateHijacked:
			f.conns.Add(-1)
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)
	return srv
}

func TestClosedLoopCountsCompletionsInsideLoadPhases(t *testing.T) {
	fk := &fakeKiterd{delay: 20 * time.Millisecond}
	srv := fk.start(t)
	wl, err := newWorkload(analyzeCold, 1)
	if err != nil {
		t.Fatal(err)
	}
	lg := &loadGen{client: newClient(2), targets: []string{srv.URL}, wl: wl}
	from := time.Now().Add(100 * time.Millisecond)
	paced := make(chan window, 1)
	// A fleet without replicas: the pacer reads no /proc and no /stats.
	go func() { paced <- pace(&fleet{}, lg.client, lg, from, 2, 2) }()
	outs := lg.run(2, from)
	w := <-paced
	if w.err != nil || len(w.phases) != 2 {
		t.Fatalf("pacer: %d phases, %v", len(w.phases), w.err)
	}
	for _, o := range outs {
		if o.failed != 0 {
			t.Fatalf("request failed: %s", o.failure)
		}
		// The pause between the phases holds no request.
		if o.start.Before(w.phases[1].from.at) && o.end.After(w.phases[0].to.at) {
			t.Fatalf("request in flight from %v to %v, during the pause from %v to %v",
				o.start, o.end, w.phases[0].to.at, w.phases[1].from.at)
		}
	}
	kept, at := byPhase(outs, w.phases)
	n := make([]int, len(w.phases))
	for i, o := range kept {
		p := w.phases[at[i]]
		if !o.start.After(p.from.at) || o.end.After(p.to.at) {
			t.Fatalf("request from %v to %v counted in the phase from %v to %v", o.start, o.end, p.from.at, p.to.at)
		}
		n[at[i]]++
	}
	for p, ph := range w.phases {
		// Two clients and 20 ms per request: one completion per 10 ms of
		// the phase, never more.
		want := int(ph.to.at.Sub(ph.from.at) / (10 * time.Millisecond))
		if n[p] < want*2/3 || n[p] > want+2 {
			t.Errorf("phase %d of %v: %d completions, want about %d", p, ph.to.at.Sub(ph.from.at), n[p], want)
		}
		if ph.speed <= 0 {
			t.Errorf("phase %d: host speed %v", p, ph.speed)
		}
	}
	if got := lg.seq.Load(); got <= uint64(len(kept)) {
		t.Fatalf("sent %d requests, kept %d: warm-up was not dropped", got, len(kept))
	}
}

func TestClientCapsConnectionsAndRequests(t *testing.T) {
	fk := &fakeKiterd{delay: 5 * time.Millisecond}
	srv := fk.start(t)
	wl, err := newWorkload(analyzeWarm, 1)
	if err != nil {
		t.Fatal(err)
	}
	client := newClient(2)
	// More goroutines than the cap: the transport must still hold the
	// server to two connections.
	var wg sync.WaitGroup
	for range 6 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 10 {
				if o := send(client, srv.URL, wl.request(uint64(i))); o.failed != 0 {
					t.Error(o.failure)
				}
			}
		}()
	}
	wg.Wait()
	if c := fk.maxConns.Load(); c > 2 {
		t.Fatalf("client opened %d connections at once, want ≤ 2", c)
	}
	if a := fk.maxActive.Load(); a > 2 {
		t.Fatalf("server saw %d requests at once, want ≤ 2", a)
	}
}
