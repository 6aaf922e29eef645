package main

import (
	"kiter/internal/engine"
	"kiter/internal/resilience"
	"kiter/internal/telemetry"
)

// registerBuildInfo exposes the binary's build block as the conventional
// constant-1 info gauge.
func registerBuildInfo(reg *telemetry.Registry, b buildInfo) {
	if reg == nil {
		return
	}
	reg.Collect(func(x *telemetry.ExpoWriter) {
		x.Family("kiter_build_info", "gauge", "Build metadata of the serving binary; value is always 1.")
		x.Sample("kiter_build_info", 1,
			"version", b.Version, "goVersion", b.GoVersion, "revision", b.Revision)
	})
}

// registerEngineCollector maps the engine's Stats snapshot onto Prometheus
// families at scrape time. The engine's own counters (counters struct,
// cache tiers, cluster peers) stay the single source of truth — the
// collector re-reads them on every GET /metrics instead of double-counting
// into separate instruments.
func registerEngineCollector(reg *telemetry.Registry, e *engine.Engine) {
	if reg == nil || e == nil {
		return
	}
	reg.Collect(func(x *telemetry.ExpoWriter) {
		s := e.Stats()

		counter := func(name, help string, v uint64) {
			x.Family(name, "counter", help)
			x.Sample(name, float64(v))
		}
		gauge := func(name, help string, v float64) {
			x.Family(name, "gauge", help)
			x.Sample(name, v)
		}

		counter("kiter_engine_submitted_total", "Submit calls accepted by the engine.", s.Submitted)
		counter("kiter_engine_cache_hits_total", "Submissions answered from the memo cache.", s.CacheHits)
		counter("kiter_engine_cache_misses_total", "Submissions that missed the memo cache.", s.CacheMisses)
		counter("kiter_engine_deduped_total", "Submissions coalesced onto an in-flight identical job.", s.Deduped)
		counter("kiter_engine_evaluations_total", "Jobs computed by local workers.", s.Evaluations)
		counter("kiter_engine_remote_results_total", "Jobs answered by a cluster peer.", s.RemoteResults)
		counter("kiter_engine_errors_total", "Failed evaluations.", s.Errors)
		counter("kiter_engine_cancelled_total", "Abandoned evaluations.", s.Cancelled)
		counter("kiter_engine_rejected_total", "Submissions shed under overload.", s.Rejected)
		counter("kiter_panics_total", "Solver panics recovered into job errors (also counted under errors).", s.Panics)

		gauge("kiter_engine_workers", "Configured worker pool size.", float64(s.Workers))
		gauge("kiter_engine_pending", "Jobs submitted but not yet finished.", float64(s.Pending))
		gauge("kiter_engine_cache_entries", "Memoized results currently stored (summed over tiers).", float64(s.CacheEntries))

		x.Family("kiter_race_wins_total", "counter", "Default-method throughput answers per fallback-chain step.")
		for _, m := range []string{"kiter", "symbolic", "periodic"} {
			x.Sample("kiter_race_wins_total", float64(s.RaceWins[m]), "method", m)
		}

		if len(s.CacheTiers) > 0 {
			x.Family("kiter_cache_tier_hits_total", "counter", "Memo-cache lookups served by this tier.")
			for _, t := range s.CacheTiers {
				x.Sample("kiter_cache_tier_hits_total", float64(t.Hits), "tier", t.Tier)
			}
			x.Family("kiter_cache_tier_misses_total", "counter", "Memo-cache lookups that missed this tier.")
			for _, t := range s.CacheTiers {
				x.Sample("kiter_cache_tier_misses_total", float64(t.Misses), "tier", t.Tier)
			}
			x.Family("kiter_cache_tier_entries", "gauge", "Entries currently stored in this tier.")
			for _, t := range s.CacheTiers {
				x.Sample("kiter_cache_tier_entries", float64(t.Entries), "tier", t.Tier)
			}
			x.Family("kiter_cache_tier_bytes", "gauge", "Storage footprint of this tier, in bytes.")
			for _, t := range s.CacheTiers {
				x.Sample("kiter_cache_tier_bytes", float64(t.Bytes), "tier", t.Tier)
			}
		}

		if len(s.Cluster) > 0 {
			x.Family("kiter_cluster_peer_healthy", "gauge", "Local health view of the peer (1 = in the ring).")
			for _, p := range s.Cluster {
				v := 0.0
				if p.Healthy {
					v = 1
				}
				x.Sample("kiter_cluster_peer_healthy", v, "peer", p.Peer)
			}
			x.Family("kiter_cluster_forwarded_total", "counter", "Jobs forwarded to the peer with a result returned.")
			for _, p := range s.Cluster {
				x.Sample("kiter_cluster_forwarded_total", float64(p.Forwarded), "peer", p.Peer)
			}
			x.Family("kiter_cluster_failed_over_total", "counter", "Forward attempts that fell back to local evaluation.")
			for _, p := range s.Cluster {
				x.Sample("kiter_cluster_failed_over_total", float64(p.FailedOver), "peer", p.Peer)
			}
			x.Family("kiter_cluster_served_total", "counter", "Jobs evaluated locally on the peer's behalf.")
			for _, p := range s.Cluster {
				x.Sample("kiter_cluster_served_total", float64(p.Served), "peer", p.Peer)
			}
			x.Family("kiter_cluster_probes_total", "counter", "Health probes sent to the peer.")
			for _, p := range s.Cluster {
				x.Sample("kiter_cluster_probes_total", float64(p.Probes), "peer", p.Peer)
			}
			x.Family("kiter_cluster_retried_total", "counter", "Forward attempts retried after a first failure.")
			for _, p := range s.Cluster {
				x.Sample("kiter_cluster_retried_total", float64(p.Retried), "peer", p.Peer)
			}
			x.Family("kiter_cluster_breaker_state", "gauge",
				"Peer circuit-breaker state: 0 closed, 1 half-open, 2 open.")
			for _, p := range s.Cluster {
				x.Sample("kiter_cluster_breaker_state", breakerStateValue(p.BreakerState), "peer", p.Peer)
			}
			x.Family("kiter_cluster_breaker_opens_total", "counter", "Times the peer's circuit breaker opened.")
			for _, p := range s.Cluster {
				x.Sample("kiter_cluster_breaker_opens_total", float64(p.BreakerOpens), "peer", p.Peer)
			}
		}
	})
}

// breakerStateValue maps the wire state names onto the gauge encoding.
func breakerStateValue(state string) float64 {
	switch state {
	case "half-open":
		return 1
	case "open":
		return 2
	}
	return 0
}

// registerAdmissionCollector exposes the admission controller's shed
// counter and live wait estimate at scrape time.
func registerAdmissionCollector(reg *telemetry.Registry, adm *resilience.Admission) {
	if reg == nil || adm == nil {
		return
	}
	reg.Collect(func(x *telemetry.ExpoWriter) {
		st := adm.Stats()
		x.Family("kiter_admission_shed_total", "counter",
			"Requests refused up front because their estimated queue wait exceeded the request budget.")
		x.Sample("kiter_admission_shed_total", float64(st.Shed))
		x.Family("kiter_admission_estimated_wait_seconds", "gauge",
			"Predicted queue wait for a job submitted now, in seconds.")
		x.Sample("kiter_admission_estimated_wait_seconds", st.EstimatedWaitMS/1000)
	})
}
