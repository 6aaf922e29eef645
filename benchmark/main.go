// Command benchmark is the repository's benchmark. It builds nothing
// itself: run.sh builds it and kiterd from the same checkout, then runs it
// from the repository root.
//
//	bash benchmark/run.sh --workload analyze-cold --seed 1 --seconds 15 --trace 0
//
// One run sets kiterd up, drives one workload in a closed loop from this
// single process (at most nproc client goroutines and nproc connections per
// replica), pausing once a second to calibrate the host's speed, checks
// every sampled answer's period Ω against an in-process K-Iter reference,
// and prints each metric as "name value unit" followed by one JSON line.
// End-to-end times are scaled to a reference host speed (calibrate.go).
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
// are the per-layer ones, from the same end-to-end run
// plus an in-process replay of the workload that records spans around the
// calls into each layer (written to trace-<workload>.json) and a solver
// attribution pass. -repeat N runs N seeds and prints every metric's median
// and interquartile range. See README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"kiter/internal/engine"
)

const (
	// warmup runs before every measured window and its answers are
	// dropped. It is long enough for analyze-cold to fill kiterd's memo
	// cache, so the window sees the steady state with evictions.
	warmup = 5 * time.Second
	// setupRounds is how often a run sets kiterd up; setup_s is the median.
	setupRounds = 7
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload  = fs.String("workload", "", "workload name from BENCHMARK.json, or all (with -repeat)")
		seed      = fs.Int64("seed", 1, "workload seed")
		seconds   = fs.Int("seconds", 15, "measured window per run, in seconds")
		trace     = fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		repeat    = fs.Int("repeat", 1, "runs per workload, seeds seed…seed+N-1; N > 1 prints medians and quartiles")
		kiterd    = fs.String("kiterd", "", "kiterd binary built from this checkout")
		out       = fs.String("out", ".bench_build", "directory for trace files")
		benchPath = fs.String("bench", "BENCHMARK.json", "benchmark declaration")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec(*benchPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	names := []string{*workload}
	if *workload == "all" && *repeat > 1 {
		names = workloadNames
	}
	for _, n := range names {
		if !spec.hasWorkload(n) {
			fmt.Fprintf(stderr, "benchmark: unknown --workload %q\n", n)
			return 2
		}
	}
	if *kiterd == "" || *seconds < 1 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "benchmark: need -kiterd, --seconds ≥ 1, -repeat ≥ 1 and --trace 0 or 1")
		return 2
	}
	s := settings{
		kiterd:  *kiterd,
		out:     *out,
		window:  time.Duration(*seconds) * time.Second,
		clients: runtime.NumCPU(),
		trace:   *trace == 1,
	}
	runtime.GOMAXPROCS(s.clients)
	decls := spec.EndToEnd
	if s.trace {
		decls = spec.PerLayer
	}

	if *repeat == 1 {
		res, err := measureOne(s, spec, names[0], *seed)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		printMetrics(stdout, decls, res.Metrics)
		line, _ := json.Marshal(res)
		fmt.Fprintf(stdout, "%s\n", line)
		if !res.Correct {
			return 1
		}
		return 0
	}
	return repeatRuns(s, spec, names, *seed, *repeat, decls, stdout, stderr)
}

// settings are the knobs every run shares.
type settings struct {
	kiterd  string
	out     string
	window  time.Duration
	clients int
	trace   bool
}

// measureOne runs one workload once and shapes its output: the declared
// end-to-end or per-layer metrics.
func measureOne(s settings, spec *benchSpec, name string, seed int64) (*result, error) {
	wl, err := newWorkload(name, seed)
	if err != nil {
		return nil, err
	}
	m, err := measure(s, wl)
	if err != nil {
		return nil, err
	}
	decls := spec.EndToEnd
	if s.trace {
		decls = spec.PerLayer
	}
	metrics, err := pick(decls, m.values, append(spec.EndToEnd, spec.PerLayer...))
	if err != nil {
		return nil, err
	}
	for _, p := range m.problems {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %s\n", name, p)
	}
	return &result{Correct: len(m.problems) == 0, Attempted: m.attempted, Failed: m.failed, Metrics: metrics}, nil
}

// measurement is what one run produced: every metric it computed, the
// analyses attempted and failed in the window, and the reasons, if any,
// that make the run incorrect.
type measurement struct {
	values    map[string]float64
	attempted int
	failed    int
	problems  []string
}

// newClient returns the load generator's HTTP client: at most conns
// connections per replica, all kept alive.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 2 * time.Minute,
		Transport: &http.Transport{
			DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			IdleConnTimeout:     90 * time.Second,
			DisableCompression:  true,
		},
	}
}

// setUp starts kiterd setupRounds times, each time until every replica is
// ready and the warm pool is primed, keeps the last fleet and returns the
// median set-up time, each scaled to the reference host by a calibration
// right after it.
func setUp(s settings, wl *workload, client *http.Client) (*fleet, float64, error) {
	replicas := 1
	if wl.name == fleetMixed {
		replicas = 3
	}
	pool := wl.warmPool()
	var times []float64
	var f *fleet
	for range setupRounds {
		if f != nil {
			f.stop()
			client.CloseIdleConnections()
		}
		start := time.Now()
		var err error
		if f, err = startFleet(s.kiterd, replicas); err != nil {
			return nil, 0, err
		}
		if err := f.waitReady(client, 30*time.Second); err != nil {
			f.stop()
			return nil, 0, err
		}
		if err := sendAll(client, f.urls(), pool, s.clients); err != nil {
			f.stop()
			return nil, 0, err
		}
		elapsed := time.Since(start).Seconds()
		times = append(times, atReference(elapsed, calibrate(calibSpan, s.clients)))
	}
	return f, median(times), nil
}

// tick is the fleet's and the client's resource use at one edge of a load
// phase.
type tick struct {
	at        time.Time
	fleetCPU  int64 // clock ticks
	fleetRSS  float64
	clientCPU time.Duration
}

func (f *fleet) tick() (tick, error) {
	t := tick{at: time.Now(), clientCPU: clientCPU()}
	var err error
	if t.fleetCPU, err = f.cpuTicks(); err == nil {
		t.fleetRSS, err = f.rssMB()
	}
	return t, err
}

// phase is one load phase of the measured window, between two pauses, with
// the start of the pause before it and the host speed calibrated there.
type phase struct {
	paused, from, to tick
	speed            float64 // calibration units per second per goroutine
}

// window is what the pacer saw during the measured window: its load phases
// and /stats at both ends.
type window struct {
	phases []phase
	stats  [2][]engine.Stats
	err    error
}

func clientCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// pace runs the measured window. From `from` on, once a second, it halts
// the load, closes the running load phase, calibrates the host while
// nothing else runs and opens the next phase; after `phases` of them it
// stops the load, on every path. /stats is read in the first and the last
// pause, so its deltas cover exactly the window's load phases.
func pace(f *fleet, client *http.Client, lg *loadGen, from time.Time, phases, goroutines int) (w window) {
	for i := 0; ; i++ {
		time.Sleep(time.Until(from.Add(time.Duration(i) * time.Second)))
		lg.halt()
		t, err := f.tick()
		if err == nil && i > 0 {
			w.phases[i-1].to = t
		}
		if err == nil && (i == 0 || i == phases) {
			w.stats[min(i, 1)], err = f.stats(context.Background(), client)
		}
		if err != nil || i == phases {
			w.err = err
			lg.stop()
			return w
		}
		speed := calibrate(calibSpan, goroutines)
		started, err := f.tick()
		if err != nil {
			w.err = err
			lg.stop()
			return w
		}
		w.phases = append(w.phases, phase{paused: t, from: started, speed: speed})
		lg.resume()
	}
}

// byPhase keeps the outcomes that completed inside a load phase and returns
// each one's phase. A request is sent and completed between two pauses, so
// only warm-up requests fall outside every phase.
func byPhase(outs []outcome, phases []phase) ([]outcome, []int) {
	var kept []outcome
	var at []int
	for _, o := range outs {
		p := sort.Search(len(phases), func(p int) bool { return !phases[p].to.at.Before(o.end) })
		if p < len(phases) && o.end.After(phases[p].from.at) {
			kept = append(kept, o)
			at = append(at, p)
		}
	}
	return kept, at
}

// measure runs one workload: set-up, warm-up, the measured window, the
// answer check, and with tracing the replay and the solver attribution.
func measure(s settings, wl *workload) (*measurement, error) {
	client := newClient(s.clients)
	defer client.CloseIdleConnections()
	f, setup, err := setUp(s, wl, client)
	if err != nil {
		return nil, err
	}
	defer f.stop()

	from := time.Now().Add(warmup)
	paced := make(chan window, 1)
	lg := &loadGen{client: client, targets: f.urls(), wl: wl}
	go func() { paced <- pace(f, client, lg, from, int(s.window/time.Second), s.clients) }()
	outs := lg.run(s.clients, from)
	w := <-paced
	if w.err != nil {
		return nil, w.err
	}
	f.stop()
	outs, at := byPhase(outs, w.phases)

	m := &measurement{values: map[string]float64{}}
	compared, checkErr := newChecker().check(wl, outs, s.clients)
	if checkErr != nil {
		m.problems = append(m.problems, "wrong answer: "+checkErr.Error())
	}
	fmt.Fprintf(os.Stderr, "benchmark: %s: %d requests in the window, %d answers checked\n", wl.name, len(outs), compared)

	var lat, overhead, fwdMiss, localMiss []float64
	forwarded := 0
	for i := range outs {
		o := &outs[i]
		m.attempted += o.req.analyses()
		m.failed += o.failed
		if o.failed > 0 && len(m.problems) < 8 {
			m.problems = append(m.problems, fmt.Sprintf("request %d failed: %s", o.req.seq, o.failure))
		}
		l := ms(o.latency())
		lat = append(lat, atReference(l, w.phases[at[i]].speed))
		overhead = append(overhead, l-o.elapsedMS)
		if o.peer != "" {
			forwarded++
		}
		if !o.cacheHit && o.req.path == "/analyze" {
			if o.peer != "" {
				fwdMiss = append(fwdMiss, l)
			} else {
				localMiss = append(localMiss, l)
			}
		}
	}
	if len(outs) == 0 {
		return nil, fmt.Errorf("no request completed in the %v window", s.window)
	}
	completed := float64(m.attempted - m.failed)
	p99 := quantile(lat, 0.99)
	if n := beyond(lat, p99); n < 10 {
		m.problems = append(m.problems, fmt.Sprintf("only %d of %d latency samples lie beyond p99", n, len(lat)))
	}
	rates, cpus, clientMS, rss := perPhase(outs, at, w.phases)
	var speeds []float64
	for _, p := range w.phases {
		speeds = append(speeds, p.speed)
	}
	fmt.Fprintf(os.Stderr, "benchmark: %s: analyses per second, per load phase at the reference speed: %.0f\n", wl.name, rates)
	fmt.Fprintf(os.Stderr, "benchmark: %s: host speed per load phase: %.0f\n", wl.name, speeds)
	v := m.values
	v["setup_s"] = setup
	v["analyses_per_s"] = median(rates)
	v["p50_ms"] = quantile(lat, 0.5)
	v["p99_ms"] = p99
	v["cpu_ms_per_analysis"] = median(cpus)
	v["rss_mb"] = median(rss)

	v["kiterd.overhead_ms.p50"] = quantile(overhead, 0.5)
	v["kiterd.overhead_ms.p99"] = quantile(overhead, 0.99)
	v["bench.client_cpu_ms_per_analysis"] = median(clientMS)
	v["bench.host_speed"] = median(speeds)
	v["bench.fail_ratio"] = ratio(float64(m.failed), float64(m.attempted))
	clusterMetrics(v, w.stats, completed)
	v["cluster.forwarded_ratio"] = float64(forwarded) / float64(len(outs))
	v["cluster.forward_extra_ms.p50"] = 0
	if len(fwdMiss) > 0 && len(localMiss) > 0 {
		v["cluster.forward_extra_ms.p50"] = quantile(fwdMiss, 0.5) - quantile(localMiss, 0.5)
	}

	if s.trace {
		if err := replayMetrics(s, wl, v); err != nil {
			return nil, err
		}
		a, err := attribute(context.Background(), wl)
		if err != nil {
			return nil, err
		}
		for k, x := range a {
			v[k] = x
		}
	}
	return m, nil
}

// perPhase returns per load phase the analysis rate, kiterd's CPU time per
// analysis, the client's CPU time per analysis and kiterd's resident set.
// The rate and kiterd's CPU time are scaled to the reference host by the
// phase's calibration. kiterd's CPU time includes the pause before the
// phase, so work kiterd does while the host is calibrated counts as cost.
// The end-to-end metrics are medians over the phases: a burst of
// interference from outside the benchmark moves a phase, not the median.
func perPhase(outs []outcome, at []int, phases []phase) (rates, cpuMS, clientMS, rssMB []float64) {
	done := make([]float64, len(phases))
	for i := range outs {
		done[at[i]] += float64(outs[i].req.analyses() - outs[i].failed)
	}
	for p, ph := range phases {
		secs := ph.to.at.Sub(ph.from.at).Seconds()
		cpu := float64(ph.to.fleetCPU-ph.paused.fleetCPU) * 1000 / clockTicks
		rates = append(rates, done[p]/atReference(secs, ph.speed))
		cpuMS = append(cpuMS, atReference(ratio(cpu, done[p]), ph.speed))
		clientMS = append(clientMS, ratio(ms(ph.to.clientCPU-ph.from.clientCPU), done[p]))
		rssMB = append(rssMB, ph.to.fleetRSS)
	}
	return rates, cpuMS, clientMS, rssMB
}

// clusterMetrics derives the cluster layer's counters from the /stats
// deltas over the window, summed over replicas.
func clusterMetrics(v map[string]float64, edges [2][]engine.Stats, completed float64) {
	var evals, granted, served, failedOver, retried, fleetHits, fleetLookups float64
	for i := range edges[1] {
		d := edges[1][i].Delta(edges[0][i])
		evals += float64(d.Evaluations)
		granted += float64(d.ClaimsGranted)
		served += float64(d.ClaimsServed)
		for _, p := range d.Cluster {
			failedOver += float64(p.FailedOver)
			retried += float64(p.Retried)
		}
		for _, t := range d.CacheTiers {
			if t.Tier == "fleet" {
				fleetHits += float64(t.Hits)
				fleetLookups += float64(t.Hits + t.Misses)
			}
		}
	}
	v["cluster.failed_over"] = failedOver
	v["cluster.retried"] = retried
	v["cluster.fleet_hit_ratio"] = ratio(fleetHits, fleetLookups)
	v["cluster.claims_granted"] = granted
	v["cluster.claims_served"] = served
	v["cluster.evaluations_per_analysis"] = ratio(evals, completed)
}

// repeatRuns runs every named workload n times with consecutive seeds and
// prints each metric's median, quartiles and quartile spread.
func repeatRuns(s settings, spec *benchSpec, names []string, seed int64, n int, decls []declared, stdout, stderr io.Writer) int {
	type summary struct {
		Median, Q1, Q3 float64
		Unit           string
	}
	all := map[string]map[string]summary{}
	correct, attempted, failed := true, 0, 0
	for _, name := range names {
		runs := map[string][]float64{}
		for i := range int64(n) {
			res, err := measureOne(s, spec, name, seed+i)
			if err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
			correct = correct && res.Correct
			attempted += res.Attempted
			failed += res.Failed
			for k, m := range res.Metrics {
				runs[k] = append(runs[k], m.Value)
			}
			fmt.Fprintf(stderr, "benchmark: %s seed %d done\n", name, seed+i)
		}
		sums := map[string]summary{}
		fmt.Fprintf(stdout, "%s (%d runs)\n%-40s %14s %14s %14s %8s\n", name, n, "metric", "median", "q1", "q3", "iqr/med")
		for _, d := range decls {
			xs := runs[d.Name]
			sm := summary{median(xs), quartile(xs, 1), quartile(xs, 3), d.Unit}
			sums[d.Name] = sm
			fmt.Fprintf(stdout, "%-40s %14.6g %14.6g %14.6g %7.1f%% %s\n", d.Name, sm.Median, sm.Q1, sm.Q3,
				100*ratio(sm.Q3-sm.Q1, sm.Median), d.Unit)
		}
		all[name] = sums
	}
	line, _ := json.Marshal(map[string]any{"correct": correct, "attempted": attempted, "failed": failed, "summaries": all})
	fmt.Fprintf(stdout, "%s\n", line)
	if !correct {
		return 1
	}
	return 0
}

// quartile returns the k-th quartile of xs the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method).
func quartile(xs []float64, k int) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return quantile(s, 0.5)
	}
	m := n + 1
	j := min(max(k*m/4, 1), n-1)
	delta := k*m - j*4
	return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
}
