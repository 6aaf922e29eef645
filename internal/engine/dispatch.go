package engine

import (
	"context"

	"kiter/internal/csdf"
)

// DispatchJob describes one prepared submission offered to a Dispatcher
// before it reaches the local worker pool. It carries everything a remote
// replica needs to reproduce the submission exactly — the original
// (pre-capacity-rewrite) graph plus the normalized request knobs — so that
// the remote side derives the same cache key and the deduplication spans
// processes.
type DispatchJob struct {
	// Graph is the caller's graph as submitted, before any capacity
	// rewrite: forwarding the original (rather than the prepared, bounded
	// graph) lets the receiving engine run the same preparation and land on
	// the same cache key as a direct submission would.
	Graph *csdf.Graph
	// GraphJSON is Request.GraphJSON: Graph's JSON text as the client
	// sent it, or nil. It is valid until ReleaseGraphJSON is called or
	// Dispatch returns.
	GraphJSON []byte
	// release is Request.ReleaseGraphJSON.
	release func()
	// Analyses is the normalized (deduplicated, sorted) analysis list.
	Analyses []AnalysisKind
	// Method is the resolved throughput method (never empty).
	Method Method
	// ApplyCapacities and NoCache mirror the Request flags.
	ApplyCapacities bool
	NoCache         bool
	// Fingerprint is the structural hash of the graph as analyzed (after
	// the capacity rewrite, when requested) — the routing key every replica
	// computes identically, so a consistent-hash ring places the job on the
	// same owner no matter which replica received it.
	Fingerprint string
}

// Dispatcher is the work-routing seam: when configured, the engine offers
// every leader job (one per deduplicated cache key) to the Dispatcher
// before it waits for a local worker slot. internal/cluster
// implements it to forward non-local jobs to their ring owner; the nil
// Dispatcher is the local engine of today.
//
// Dispatch returns handled=false to decline the job — the engine then runs
// it locally, which doubles as the transparent fallback when a remote owner
// is down. handled=true means the Dispatcher resolved the job: res is the
// remote result (cached and published to every waiter) or err is the
// failure the waiters see. ctx is derived from the job's flight context;
// it is cancelled when every submitter abandons the job or the engine
// closes, so a forward in progress for a result nobody wants anymore
// aborts instead of completing (or stalling shutdown).
//
// A Dispatcher must not keep job past Dispatch, nor read its GraphJSON
// after calling its ReleaseGraphJSON: the bytes may alias a buffer the
// submitter reuses from then on.
//
// The engine does not take ownership of the Dispatcher: callers that wire
// one in (cmd/kiterd) close it themselves after Engine.Close.
type Dispatcher interface {
	Dispatch(ctx context.Context, job *DispatchJob) (res *Result, handled bool, err error)
}

// PeerStats is one cluster peer's dispatch telemetry as surfaced on
// Stats.Cluster and /stats.
type PeerStats struct {
	// Peer is the peer's advertised address.
	Peer string `json:"peer"`
	// Healthy reports the local health view: unhealthy peers are skipped by
	// ring placement until a probe succeeds again.
	Healthy bool `json:"healthy"`
	// Forwarded counts jobs this replica sent to the peer and got a result
	// back for; FailedOver counts forward attempts that fell back to local
	// evaluation (peer down, slow, or answering garbage).
	Forwarded  uint64 `json:"forwarded"`
	FailedOver uint64 `json:"failedOver"`
	// Served counts jobs this replica evaluated on the peer's behalf (the
	// mirror image of the peer's Forwarded, counted on the receiving side).
	Served uint64 `json:"served"`
	// Probes counts health probes sent to the peer.
	Probes uint64 `json:"probes"`
	// Retried counts forwards that got a second, jittered-backoff attempt
	// after the first failed (whatever the retry's outcome).
	Retried uint64 `json:"retried"`
	// BreakerState is the peer's circuit-breaker position ("closed",
	// "half-open" or "open" — open peers are out of the ring);
	// BreakerOpens counts how many times the breaker has tripped.
	BreakerState string `json:"breakerState,omitempty"`
	BreakerOpens uint64 `json:"breakerOpens"`
}

// DispatchStatser is the optional telemetry interface a Dispatcher may
// implement; the engine surfaces its report on Stats.Cluster.
type DispatchStatser interface {
	DispatchStats() []PeerStats
}

// ReleaseGraphJSON hands GraphJSON back to the submitter: a Dispatcher
// calls it once it has copied the bytes, so the buffer is not held while
// the peer works. The engine calls it when Dispatch returns; later calls
// do nothing.
func (j *DispatchJob) ReleaseGraphJSON() {
	if j.release != nil {
		j.release()
		j.release = nil
	}
	j.GraphJSON = nil
}

// launch routes a leader's job, on the leader's goroutine: a configured
// Dispatcher gets first claim (djob is nil when there is none, or when the
// request pinned itself local with NoForward); unhandled jobs wait for a
// local worker slot. Remote results are cached under the same key a local
// evaluation would use, so repeats are answered locally.
func (e *Engine) launch(j *job, djob *DispatchJob) {
	if djob != nil {
		// The dispatch context dies with the last waiter (flight refcount)
		// or with the engine itself, so Close never has to wait out a
		// remote forward's timeout. It derives from evalCtx so the job's
		// trace span (if any) reaches the cluster's forward hop.
		dctx, cancel := context.WithCancel(j.evalCtx())
		stop := context.AfterFunc(e.shutdownCtx, cancel)
		res, handled, err := e.cfg.Dispatcher.Dispatch(dctx, djob)
		stop()
		cancel()
		djob.ReleaseGraphJSON()
		if handled {
			switch {
			case err == nil:
				e.met.remote.Inc()
				if !j.req.NoCache && e.cache != nil {
					e.cache.Put(j.req.cacheKeyHint, res)
				}
			case contextual(err) && e.shutdownCtx.Err() != nil && j.call.jobCtx.Err() == nil:
				// Aborted by engine shutdown, not by departing waiters:
				// report it like any other job caught in Close.
				err = ErrClosed
			case contextual(err):
				e.met.cancelled.Inc()
			default:
				e.met.errors.Inc()
			}
			e.finishJob(j, res, err)
			return
		}
	}
	e.runLocal(j)
}
