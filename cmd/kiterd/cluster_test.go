package main

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"kiter/internal/cluster"
	"kiter/internal/engine"
)

func TestBuildCluster(t *testing.T) {
	if cl, err := buildCluster("", "", ":8080", 0, time.Minute, 0, nil); err != nil || cl != nil {
		t.Fatalf("no -peers should mean no cluster: %v, %v", cl, err)
	}
	if _, err := buildCluster(" , ", "", ":8080", 0, time.Minute, 0, nil); err == nil {
		t.Fatal("blank -peers accepted")
	}
	cl, err := buildCluster("127.0.0.1:9101, 127.0.0.1:9102", "", ":9100", 0, time.Minute, 0, nil)
	if err != nil {
		t.Fatalf("buildCluster: %v", err)
	}
	defer cl.Close()
	// A bare ":port" listen address is completed to a dialable loopback
	// self identity.
	if cl.Self() != "127.0.0.1:9100" {
		t.Fatalf("derived self = %s", cl.Self())
	}
}

// TestClusteredServersEndToEnd wires two full kiterd servers (engine +
// cluster + mux) together over real sockets and drives the public
// /analyze API: whichever replica receives the request, the fleet
// evaluates the graph once, and /stats exposes the per-peer counters.
func TestClusteredServersEndToEnd(t *testing.T) {
	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrA, addrB := lnA.Addr().String(), lnB.Addr().String()

	start := func(self, peer string, ln net.Listener) (*engine.Engine, *cluster.Cluster) {
		cl, err := buildCluster(peer, self, self, time.Minute, time.Minute, 0, nil)
		if err != nil {
			t.Fatalf("buildCluster(%s): %v", self, err)
		}
		e := engine.New(engine.Config{Workers: 2, Dispatcher: cl})
		hs := &http.Server{Handler: newServer(e, testTemplate(), cl, observability{})}
		go hs.Serve(ln)
		t.Cleanup(func() { hs.Close(); e.Close(); cl.Close() })
		return e, cl
	}
	engA, _ := start(addrA, addrB, lnA)
	engB, _ := start(addrB, addrA, lnB)

	body := graphBody(t)
	for _, target := range []string{addrA, addrB} {
		resp, err := http.Post("http://"+target+"/analyze", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST /analyze via %s: %v", target, err)
		}
		var reply struct {
			Result *engine.Result `json:"result"`
		}
		err = json.NewDecoder(resp.Body).Decode(&reply)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("analyze via %s: status %d, err %v", target, resp.StatusCode, err)
		}
		if reply.Result.Throughput == nil || !reply.Result.Throughput.Optimal {
			t.Fatalf("analyze via %s: %+v", target, reply.Result)
		}
	}
	if total := engA.Stats().Evaluations + engB.Stats().Evaluations; total != 1 {
		t.Fatalf("fleet evaluations = %d, want 1 (cluster-wide dedup)", total)
	}

	// /stats on the forwarding side reports the cluster section.
	resp, err := http.Get("http://" + addrA + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats engine.Stats
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Cluster) != 1 || stats.Cluster[0].Peer != addrB {
		t.Fatalf("stats.Cluster = %+v, want one row for %s", stats.Cluster, addrB)
	}
	moved := stats.RemoteResults + stats.Cluster[0].Served
	if sB := engB.Stats(); moved == 0 && sB.RemoteResults == 0 {
		t.Fatalf("no cross-replica traffic recorded: A=%+v B=%+v", stats.Cluster, sB.Cluster)
	}
}

// TestFleetCacheServersEndToEnd wires three full kiterd servers the way
// main assembles them with -peers — explicit local memory tier handed to
// the cluster, fleet tier composed behind it — and checks the shared
// result space over the public API: one evaluation fleet-wide, and /stats
// reporting the fleet tier.
func TestFleetCacheServersEndToEnd(t *testing.T) {
	lns := make([]net.Listener, 3)
	addrs := make([]string, 3)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	peersOf := func(self string) string {
		var out string
		for _, a := range addrs {
			if a != self {
				if out != "" {
					out += ","
				}
				out += a
			}
		}
		return out
	}
	engines := make([]*engine.Engine, 3)
	for i, ln := range lns {
		self := addrs[i]
		cl, err := buildCluster(peersOf(self), self, self, time.Minute, time.Minute, 0, nil)
		if err != nil {
			t.Fatalf("buildCluster(%s): %v", self, err)
		}
		backend, err := buildCache(0, "", 0, cl)
		if err != nil {
			t.Fatal(err)
		}
		e := engine.New(engine.Config{
			Workers:      2,
			CacheBackend: backend,
			Dispatcher:   cl,
		})
		hs := &http.Server{Handler: newServer(e, testTemplate(), cl, observability{})}
		go hs.Serve(ln)
		t.Cleanup(func() { hs.Close(); e.Close(); cl.Close() })
		engines[i] = e
	}

	body := graphBody(t)
	for _, target := range addrs {
		resp, err := http.Post("http://"+target+"/analyze", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST /analyze via %s: %v", target, err)
		}
		var reply struct {
			Result *engine.Result `json:"result"`
		}
		err = json.NewDecoder(resp.Body).Decode(&reply)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("analyze via %s: status %d, err %v", target, resp.StatusCode, err)
		}
		if reply.Result.Throughput == nil || !reply.Result.Throughput.Optimal {
			t.Fatalf("analyze via %s: %+v", target, reply.Result)
		}
	}
	var evals uint64
	for _, e := range engines {
		evals += e.Stats().Evaluations
	}
	if evals != 1 {
		t.Fatalf("fleet evaluations = %d, want 1 (shared result space)", evals)
	}

	// /stats on any replica reports the fleet tier alongside memory.
	resp, err := http.Get("http://" + addrs[0] + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats engine.Stats
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	tiers := map[string]bool{}
	for _, ts := range stats.CacheTiers {
		tiers[ts.Tier] = true
	}
	if !tiers["memory"] || !tiers["fleet"] {
		t.Fatalf("stats.CacheTiers = %+v, want memory and fleet tiers", stats.CacheTiers)
	}
}

// TestWriteStatsFileAtomic: the -stats-out snapshot lands via rename, so a
// concurrent reader sees either the old or the new file, never a torn one
// — and no temp debris is left behind.
func TestWriteStatsFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "stats.json")
	if err := os.WriteFile(path, []byte("{\"old\": true}"), 0o644); err != nil {
		t.Fatal(err)
	}
	e := engine.New(engine.Config{Workers: 1})
	defer e.Close()
	if err := writeStatsFile(path, e.Stats()); err != nil {
		t.Fatalf("writeStatsFile: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var s engine.Stats
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatalf("snapshot not valid JSON: %v", err)
	}
	if s.Workers != 1 {
		t.Fatalf("snapshot content wrong: %+v", s)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp files left behind: %v", entries)
	}
	// Unwritable target directory surfaces as an error, not a partial file.
	if err := writeStatsFile(filepath.Join(dir, "missing", "stats.json"), e.Stats()); err == nil {
		t.Fatal("write into missing directory succeeded")
	}
}
