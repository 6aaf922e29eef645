// Command kiterd serves the concurrent CSDF analysis engine.
//
// HTTP mode (default) exposes a JSON API:
//
//	POST /analyze   analyze a graph (body: a graph in the repository's
//	                JSON format, or an envelope {"graph": …, "analyses":
//	                ["throughput", …], "method": "auto", "capacities":
//	                false}); the response carries the analysis result
//	POST /sweep     expand a parametric sweep spec ({"base": graph,
//	                "parameters": [{"name", "target", "values"|"range"},
//	                …]}) into a scenario family and stream one NDJSON line
//	                per scenario plus a closing {"envelope": …} aggregate
//	                (min/max throughput, argmin/argmax, optional Pareto
//	                front); disconnecting cancels the remaining scenarios
//	GET  /healthz   liveness probe; /healthz?ready=1 is the readiness
//	                probe (503 until the engine and cache are serving)
//	GET  /stats     engine telemetry (cache hit rate, latency, answers per
//	                method)
//	                plus the binary's build/version block
//	GET  /metrics   Prometheus text exposition: request/solve latency
//	                histograms, cache and cluster counters, build info, and
//	                per endpoint the slowest recent trace's ID
//	GET  /debug/traces       the flight recorder's retained traces
//	GET  /debug/traces/{id}  one trace's span tree (?fleet=1 stitches it
//	                         across every replica it touched)
//
// The flight recorder (-trace-buffer traces, 0 disables tracing) is the
// only place a trace is stored. /analyze and /sweep record the request's
// span tree (submit → cache lookup → queue wait → solve/analysis phases)
// and name it in the X-Kiter-Trace-Id response header; clients pull it
// from GET /debug/traces/{id}. -pprof-addr serves net/http/pprof on a
// separate listener; -version prints the build block and exits.
//
// Batch mode streams a directory (every .json/.xml graph under it) or a
// manifest file (one graph path per line) through the engine as one family
// and writes newline-delimited JSON in completion order — one {"path",
// "result"} object (or {"path", "error"}) per line the moment each job
// finishes, then a closing {"summary": …} line — so downstream pipeline
// stages start consuming before the batch ends. It exits non-zero when any
// graph fails. cmd/gengraph writes the evaluation suites to feed it:
//
//	go run ./cmd/gengraph -suite table1 -out suites
//	kiterd -batch suites/MimicDSP | jq .result.throughput.period
//	kiterd -batch manifest.txt -method kiter -analyses throughput,schedule
//
// Sweep mode runs one parametric spec file through the same family
// submission and NDJSON streaming and exits non-zero when any scenario
// fails:
//
//	kiterd -sweep spec.json | jq 'select(.envelope).envelope.maxThroughput'
//
// With -cache-dir, completed results are also persisted to a disk cache
// tier under that directory (memory→disk tiered reads, write-through
// stores), so a restarted or replicated kiterd warm-starts repeat sweeps
// and batches from prior runs; -cache-disk-bytes caps the directory and
// /stats reports per-tier hit counters:
//
//	kiterd -cache-dir /var/cache/kiterd -cache-disk-bytes 268435456
//
// With -peers, N replicas form one analysis fleet: each job is
// consistently hashed onto the member ring and forwarded to its owner
// over an internal POST /cluster/evaluate hop, making the owner's
// singleflight and memo cache deduplicate work fleet-wide. A dead or slow
// owner degrades transparently to local evaluation and is probed back
// into the ring; /stats grows per-peer forwarded/served/failedOver
// counters (see the README's Cluster section for a 3-replica
// walkthrough):
//
//	kiterd -addr 127.0.0.1:9101 -peers 127.0.0.1:9102,127.0.0.1:9103
//
// Clustered replicas also let a freshly joined replica warm-start its own
// shard: while ownership is new (after start and after a ring change), a
// local miss on a key the replica owns itself is answered from the ring
// successor — the member that owned the key before the join — over
// POST /cluster/cache/get, in the binary result codec
// (internal/resultcodec) the disk cache stores. Keys other members own
// are never read remotely: the forward to the owner answers them from the
// owner's cache or evaluates. Duplicate submissions cost one evaluation
// fleet-wide while the owner is reachable, and each forward that fails
// over to local evaluation may cost one more. -cache-fleet is accepted
// for compatibility and does nothing: the successor read is always on
// with -peers.
//
// HTTP mode drains on SIGTERM/SIGINT: readiness flips to 503 and new
// submissions are refused (503 + Retry-After) while in-flight requests —
// streaming sweeps included — get -drain-timeout to finish; then the disk
// cache is flushed, the final -stats-out snapshot is written, and the
// process exits 0. Under load, requests whose predicted queue wait
// already exceeds their -timeout budget are shed up front with 429 and
// the predicted wait in Retry-After. Per-peer circuit breakers with one
// retried forward cover peer failures; -chaos (or KITER_CHAOS) arms
// fault-injection points for drills (see the README's Operations
// section):
//
//	kiterd -drain-timeout 30s -chaos 'cache.get:error::3,solver.entry:latency:50ms'
//
// Usage:
//
//	kiterd [-addr :8080] [-workers N] [-max-pending N] [-cache N]
//	       [-method auto] [-cache-dir dir] [-cache-disk-bytes N]
//	       [-capacities] [-peers host:port,…] [-self host:port]
//	       [-forward-timeout 0] [-analyses throughput] [-timeout 60s]
//	       [-stats-out stats.json] [-drain-timeout 30s] [-chaos spec]
//	       [-trace-buffer 256] [-pprof-addr addr] [-version]
//	       [-batch dir-or-manifest] [-sweep spec.json]
//
// At most -workers jobs evaluate at once; the rest wait for a slot in
// arrival order, and beyond -max-pending jobs new submissions are shed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"kiter/internal/cachedisk"
	"kiter/internal/cluster"
	"kiter/internal/engine"
	"kiter/internal/faultinject"
	"kiter/internal/kperiodic"
	"kiter/internal/resilience"
	"kiter/internal/telemetry"
)

func main() {
	// run owns all deferred cleanup (engine shutdown, stats snapshot);
	// exiting from main keeps those defers running on failure.
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "kiterd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr           = flag.String("addr", ":8080", "HTTP listen address")
		workers        = flag.Int("workers", 0, "max concurrent evaluations (0 = GOMAXPROCS)")
		cacheSize      = flag.Int("cache", 4096, "result cache capacity in entries (0 = 4096, negative disables)")
		cacheDir       = flag.String("cache-dir", "", "directory for a disk result-cache tier under the in-memory one; restarts with the same directory warm-start from prior results (empty = memory only)")
		cacheDiskBytes = flag.Int64("cache-disk-bytes", 256<<20, "disk cache byte quota for -cache-dir; over it the oldest segments are compacted away in the background")
		statsOut       = flag.String("stats-out", "", "write the final engine stats snapshot as JSON to this file on exit (all modes, including HTTP after a drain)")
		maxPending     = flag.Int("max-pending", 0, "max in-flight jobs before shedding load (0 = 16×(workers+1))")
		method         = flag.String("method", "auto", "throughput method: auto (K-Iter, then symbolic execution, then 1-periodic, each when the previous fails) | kiter | periodic | expansion | symbolic; race is an old name for auto")
		analyses       = flag.String("analyses", "throughput", "comma-separated analyses: throughput,schedule,sizing,symbolic")
		capacities     = flag.Bool("capacities", false, "apply declared buffer capacities before analysis")
		timeout        = flag.Duration("timeout", 60*time.Second, "per-request analysis timeout")
		batch          = flag.String("batch", "", "batch mode: analyze a directory or manifest of graph files and exit")
		sweepSpec      = flag.String("sweep", "", "sweep mode: expand a parametric spec file into a scenario family, stream NDJSON results and exit")
		peers          = flag.String("peers", "", "comma-separated peer replica addresses (host:port); jobs are consistently hashed across self+peers and forwarded to their owner")
		selfAddr       = flag.String("self", "", "advertised cluster address of this replica (default: derived from -addr); every replica must list it under exactly this string")
		forwardTimeout = flag.Duration("forward-timeout", 0, "per-job cluster forward budget before local fallback (0 = -timeout)")
		traceBuffer    = flag.Int("trace-buffer", 256, "HTTP mode: capacity of the always-on flight recorder behind GET /debug/traces — a bounded ring of recent traces biased toward keeping the slowest and errored ones (0 disables tracing entirely)")
		pprofAddr      = flag.String("pprof-addr", "", "serve net/http/pprof on this separate address (empty = disabled)")
		drainTimeout   = flag.Duration("drain-timeout", 30*time.Second, "HTTP mode: budget for in-flight requests to finish after SIGTERM/SIGINT before connections are cut")
		chaos          = flag.String("chaos", "", "fault-injection spec, e.g. cache.get:error::3,solver.entry:latency:50ms (default: $KITER_CHAOS; empty disables)")
		version        = flag.Bool("version", false, "print version and build info, then exit")
	)
	// -cache-fleet is a no-op kept so existing command lines still parse:
	// with -peers the fleet tier's successor read is always on.
	flag.Bool("cache-fleet", false, "no-op, kept for compatibility: with -peers a replica reads missed keys it owns from the ring successor while ownership is new")
	flag.Parse()

	if *version {
		printVersion(os.Stdout, readBuildInfo())
		return nil
	}

	chaosSpec := *chaos
	if chaosSpec == "" {
		chaosSpec = os.Getenv("KITER_CHAOS")
	}
	if set, err := faultinject.Parse(chaosSpec); err != nil {
		return fmt.Errorf("parsing -chaos: %w", err)
	} else if set != nil {
		faultinject.Activate(set)
		points := faultinject.Points()
		sort.Strings(points)
		fmt.Fprintf(os.Stderr, "kiterd: chaos armed at %s\n", strings.Join(points, ", "))
	}

	// One registry serves the whole process: the engine, cluster and
	// admission controller register their counters and histograms into it
	// at construction, and GET /metrics renders it.
	// The Go runtime collector (goroutines, heap, GC pauses, scheduler
	// latency) rides along so every scrape carries process health.
	reg := telemetry.NewRegistry()
	telemetry.RegisterRuntimeMetrics(reg)

	cl, err := buildCluster(*peers, *selfAddr, *addr, *forwardTimeout, *timeout, *workers, reg)
	if err != nil {
		return err
	}
	var dispatcher engine.Dispatcher
	if cl != nil {
		dispatcher = cl
		// The cluster outlives the engine: in-flight dispatches finish
		// during e.Close, then the prober stops.
		defer cl.Close()
	}
	backend, err := buildCache(*cacheSize, *cacheDir, *cacheDiskBytes, cl)
	if err != nil {
		return err
	}
	e := engine.New(engine.Config{
		Workers:       *workers,
		CacheCapacity: *cacheSize, // a negative -cache leaves backend nil: no caching
		CacheBackend:  backend,
		MaxPending:    *maxPending,
		// K-Iter's bi-valued graph node and phase-pair guard rails;
		// symbolic execution keeps its default 50 M event budget.
		Options:    kperiodic.Options{MaxNodes: 2_000_000, MaxPairs: 50_000_000},
		Dispatcher: dispatcher,
		Metrics:    reg,
	})
	defer e.Close()
	build := readBuildInfo()
	adm := instrument(reg, e, build)
	if *statsOut != "" {
		// Registered after e.Close's defer, so it unwinds before Close:
		// the snapshot sees the live engine and cache tiers.
		defer func() {
			if err := writeStatsFile(*statsOut, e.Stats()); err != nil {
				fmt.Fprintln(os.Stderr, "kiterd: writing -stats-out:", err)
			}
		}()
	}

	tmpl := requestTemplate{
		Method:     engine.Method(*method),
		Analyses:   parseAnalyses(*analyses),
		Capacities: *capacities,
		Timeout:    *timeout,
	}
	// Fail fast on flag typos rather than per submission (a bad -method
	// would otherwise fail every graph of a batch, or 400 every HTTP
	// request).
	if !engine.ValidMethod(tmpl.Method) {
		return fmt.Errorf("unknown -method %q (want auto, kiter, periodic, expansion or symbolic)", *method)
	}
	for _, a := range tmpl.Analyses {
		if !engine.ValidAnalysis(a) {
			return fmt.Errorf("unknown analysis %q in -analyses (want throughput, schedule, sizing or symbolic)", a)
		}
	}

	switch {
	case *sweepSpec != "":
		return runSweepFile(e, *sweepSpec, tmpl, os.Stdout)
	case *batch != "":
		paths, err := collectBatchPaths(*batch)
		if err != nil {
			return err
		}
		return runBatch(e, paths, tmpl, os.Stdout)
	default:
		// The flight recorder holds every trace the server files: the
		// roots of /analyze and /sweep, and of the cluster hops it serves
		// for peers.
		var recorder *telemetry.Recorder
		if *traceBuffer > 0 {
			recorder = telemetry.NewRecorder(*traceBuffer)
		}
		process := ""
		if cl != nil {
			process = cl.Self()
		}
		srv := newServer(e, tmpl, cl, observability{
			reg: reg, recorder: recorder, process: process, build: build,
		})
		srv.admission = adm
		if cl != nil {
			fmt.Printf("kiterd: clustered as %s (peers: %s)\n", cl.Self(), *peers)
		}
		return serveHTTP(srv, *addr, *pprofAddr, *drainTimeout)
	}
}

// buildCluster assembles the work-distribution layer from the cluster
// flags: nil (single replica, every job local) without -peers, otherwise a
// consistent-hash fleet of self + peers. The advertised self address
// defaults to the listen address, with a bare ":port" completed to
// 127.0.0.1 — fine for a local fleet, but multi-host fleets must set -self
// to the name the peers dial, because addresses are ring identities.
// workers (the -workers flag, 0 = GOMAXPROCS) sizes the forwarding
// transport's per-peer connection pool to the engine's concurrency.
func buildCluster(peers, self, addr string, forwardTimeout, requestTimeout time.Duration, workers int, reg *telemetry.Registry) (*cluster.Cluster, error) {
	if peers == "" {
		return nil, nil
	}
	if self == "" {
		self = addr
		if strings.HasPrefix(self, ":") {
			self = "127.0.0.1" + self
		}
	}
	var list []string
	for _, p := range strings.Split(peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			list = append(list, p)
		}
	}
	if len(list) == 0 {
		return nil, fmt.Errorf("-peers given but empty")
	}
	if forwardTimeout <= 0 {
		forwardTimeout = requestTimeout
	}
	if forwardTimeout <= 0 {
		// -timeout 0 means unlimited analyses; the forward budget must
		// honor that rather than fall into the cluster's 60s default.
		forwardTimeout = -1
	}
	return cluster.New(cluster.Config{
		Self:           self,
		Peers:          list,
		ForwardTimeout: forwardTimeout,
		Workers:        workers,
		Metrics:        reg,
	})
}

// instrument adds to reg what a serving process registers around its
// engine, whose own families the engine registered in New: the
// build-info gauge and the admission controller. It returns the admission
// controller, which predicts queue waits from the engine's own queue-wait
// histogram and sheds doomed requests before they occupy a pending slot
// (HTTP 429; see server.admit for the full ladder).
func instrument(reg *telemetry.Registry, e *engine.Engine, build buildInfo) *resilience.Admission {
	// The build block is the conventional constant-1 info gauge.
	reg.Collect(func(x *telemetry.ExpoWriter) {
		x.Family("kiter_build_info", "gauge", "Build metadata of the serving binary; value is always 1.")
		x.Sample("kiter_build_info", 1,
			"version", build.Version, "goVersion", build.GoVersion, "revision", build.Revision)
	})
	return resilience.NewAdmission(resilience.Estimator{
		QuantileWait: e.QueueWaitQuantile,
		Pending:      e.PendingJobs,
		Workers:      e.WorkerCount(),
	}, reg)
}

// requestTemplate carries the per-process defaults applied to every
// submission (HTTP bodies may override analyses/method/capacities).
type requestTemplate struct {
	Method     engine.Method
	Analyses   []engine.AnalysisKind
	Capacities bool
	Timeout    time.Duration
}

// buildCache assembles the engine's memo cache from the cache flags as a
// stack of tiers: memory (capacity entries, 0 meaning 4096 and negative
// none), then disk under dir when it is set, so a restarted kiterd
// re-answers repeat work from disk while serving the hot set from memory,
// then the fleet tier when cl is set. The cluster's cache handler serves
// this replica's shard from the local stack, never from the fleet tier.
func buildCache(capacity int, dir string, diskBytes int64, cl *cluster.Cluster) (engine.CacheBackend, error) {
	if capacity == 0 {
		capacity = 4096
	}
	local := engine.NewMemoryCache(16, capacity)
	if dir != "" {
		disk, err := cachedisk.Open(dir, cachedisk.Options{MaxBytes: diskBytes})
		if err != nil {
			return nil, fmt.Errorf("opening -cache-dir: %w", err)
		}
		local = engine.NewTieredCache(local, disk)
	}
	if cl == nil {
		return local, nil
	}
	cl.SetLocalCache(local)
	return engine.NewTieredCache(local, cluster.NewRemoteCache(cl)), nil
}

// writeStatsFile dumps a stats snapshot as indented JSON for -stats-out.
// The write is atomic — temp file in the target directory, fsync-free
// rename over the destination — so a scraper polling the path never reads
// a torn snapshot, only the previous or the new one.
func writeStatsFile(path string, s engine.Stats) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".stats-*.json")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

func parseAnalyses(s string) []engine.AnalysisKind {
	var out []engine.AnalysisKind
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part != "" {
			out = append(out, engine.AnalysisKind(part))
		}
	}
	return out
}
