package resilience

import (
	"math"
	"time"

	"kiter/internal/telemetry"
)

// Estimator predicts the queue wait a newly submitted job will see, from
// the engine's observed queue-wait distribution and its current load. The
// model is deliberately coarse: with a free worker the wait is ~zero; at
// or beyond saturation it extrapolates the observed p90 queue wait
// linearly with the backlog ratio pending/workers (Little's-law-flavored:
// twice the backlog ≈ twice the wait). It systematically errs pessimistic
// under deepening overload, which is the correct direction for shedding.
type Estimator struct {
	// QuantileWait returns the q-quantile of observed queue waits in
	// seconds (the engine's kiter_engine_queue_wait_seconds histogram).
	// Zero (no observations yet, or nil func) disables shedding — an
	// optimistic cold start, matching the histogram's empty state.
	QuantileWait func(q float64) float64
	// Pending returns jobs submitted but not yet finished; Workers is the
	// evaluation pool size.
	Pending func() int
	Workers int
}

// waitQuantile is the queue-wait quantile the estimate extrapolates from.
const waitQuantile = 0.9

// EstimateWait returns the predicted queue wait for a job submitted now.
func (e *Estimator) EstimateWait() time.Duration {
	if e == nil || e.Workers <= 0 || e.Pending == nil {
		return 0
	}
	pending := e.Pending()
	if pending < e.Workers {
		return 0 // a worker slot is (about to be) free
	}
	var base float64
	if e.QuantileWait != nil {
		base = e.QuantileWait(waitQuantile)
	}
	if base <= 0 {
		return 0
	}
	backlog := float64(pending) / float64(e.Workers)
	secs := base * backlog
	if secs > math.MaxInt32 { // clamp pathological extrapolations
		secs = math.MaxInt32
	}
	return time.Duration(secs * float64(time.Second))
}

// Admission sheds load before it queues: requests whose estimated queue
// wait already exceeds their deadline budget are refused up front (HTTP
// 429 + Retry-After in cmd/kiterd) instead of occupying a pending slot
// only to time out. It complements — not replaces — the engine's hard
// MaxPending cliff (ErrOverloaded → 503).
type Admission struct {
	est  Estimator
	shed *telemetry.Counter
}

// NewAdmission builds an admission controller over est and registers its
// shed counter and live wait estimate in reg. Nil gives it a private
// registry: Stats reports the same either way.
func NewAdmission(est Estimator, reg *telemetry.Registry) *Admission {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	a := &Admission{est: est, shed: reg.Counter("kiter_admission_shed_total",
		"Requests refused up front because their estimated queue wait exceeded the request budget.")}
	reg.Gauge("kiter_admission_estimated_wait_seconds",
		"Predicted queue wait for a job submitted now, in seconds.",
		func() float64 { return a.est.EstimateWait().Seconds() })
	return a
}

// Check decides one request: shed=true means refuse it now, with estimate
// as the predicted wait to report via Retry-After. budget <= 0 means the
// request has no deadline, so it is always admitted (it can afford any
// wait). Nil receivers admit everything — servers without an estimator
// keep only the hard overload cliff.
func (a *Admission) Check(budget time.Duration) (estimate time.Duration, shed bool) {
	if a == nil {
		return 0, false
	}
	estimate = a.est.EstimateWait()
	if budget <= 0 || estimate <= budget {
		return estimate, false
	}
	a.shed.Inc()
	return estimate, true
}

// EstimateWait exposes the current prediction without an admission
// decision — the Retry-After source for responses shed elsewhere (the
// engine's own ErrOverloaded 503s).
func (a *Admission) EstimateWait() time.Duration {
	if a == nil {
		return 0
	}
	return a.est.EstimateWait()
}

// AdmissionStats is the /stats view of the controller.
type AdmissionStats struct {
	// Shed counts requests refused because their estimated queue wait
	// exceeded their deadline budget.
	Shed uint64 `json:"shed"`
	// EstimatedWaitMS is the current queue-wait prediction.
	EstimatedWaitMS float64 `json:"estimatedWaitMs"`
}

// Stats snapshots the controller.
func (a *Admission) Stats() AdmissionStats {
	if a == nil {
		return AdmissionStats{}
	}
	return AdmissionStats{
		Shed:            a.shed.Value(),
		EstimatedWaitMS: float64(a.est.EstimateWait()) / float64(time.Millisecond),
	}
}
