package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"kiter/internal/engine"
	"kiter/internal/resultcodec"
	"kiter/internal/sdf3x"
)

// MaxBody bounds a client's request body on the public API (64 MiB covers
// the largest Table 2 instances). A forwarded body may add envelopeRoom
// for what encodeJob wraps around the client's graph bytes.
const (
	MaxBody        = 64 << 20
	envelopeRoom   = 1 << 10
	maxForwardBody = MaxBody + envelopeRoom
)

// Caller returns the advertised address of the peer that sent r, from
// the header every cluster round trip carries; "" when absent. The header
// is client-controlled: use it to attribute, never to authorize.
func Caller(r *http.Request) string { return r.Header.Get(peerHeader) }

// EvaluateHandler serves the internal POST /cluster/evaluate endpoint: it
// decodes a forwarded job, runs it through this replica's engine with
// forwarding pinned off (one hop max), and replies with the bare
// engine.Result as JSON. timeout bounds one evaluation (0 = none) — give
// it the same per-request budget the public /analyze endpoint uses, so a
// job costs the same wherever the ring lands it.
//
// Infrastructure failures map to status codes the forwarding side treats
// as failover triggers: 503 for overload/shutdown, 504 for timeout, 400
// for undecodable bodies. Analysis-level failures ride inside the Result
// like everywhere else. The evaluation runs under r's context, so a trace
// span the serving middleware put there collects the engine's spans.
func (c *Cluster) EvaluateHandler(e *engine.Engine, timeout time.Duration) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx := r.Context()
		if r.Method != http.MethodPost {
			WriteError(w, http.StatusMethodNotAllowed, "POST required")
			return
		}
		req, err := decodeRequest(http.MaxBytesReader(w, r.Body, maxForwardBody), r.ContentLength)
		var mbe *http.MaxBytesError
		var readErr *sdf3x.ReadError
		switch {
		case errors.As(err, &mbe):
			WriteError(w, http.StatusRequestEntityTooLarge, "body too large")
			return
		case errors.As(err, &readErr):
			WriteError(w, http.StatusBadRequest, "reading body: "+readErr.Err.Error())
			return
		case err != nil:
			WriteError(w, http.StatusBadRequest, err.Error())
			return
		}
		if timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, timeout)
			defer cancel()
		}
		res, err := e.Submit(ctx, req)
		if err != nil {
			switch {
			case errors.Is(err, engine.ErrOverloaded), errors.Is(err, engine.ErrClosed):
				WriteError(w, http.StatusServiceUnavailable, err.Error())
			case errors.Is(err, context.DeadlineExceeded):
				WriteError(w, http.StatusGatewayTimeout, "evaluation timed out")
			default:
				WriteError(w, http.StatusBadRequest, err.Error())
			}
			return
		}
		// Attribute the serve to the calling peer. Unknown senders (the
		// header is client-controlled) are ignored rather than given rows.
		if ps := c.peer(Caller(r)); ps != nil {
			ps.served.Inc()
		}
		w.Header().Set("Content-Type", resultContentType)
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(resultcodec.Encode(res))
	})
}

// WriteError writes the JSON error reply every kiterd endpoint sends:
// {"error": msg}, plus the request's correlation ID as "requestId" when
// the serving middleware's writer carries one, so a failed client call
// names the server trace to pull.
func WriteError(w http.ResponseWriter, code int, msg string) {
	body := map[string]string{"error": msg}
	if rw, ok := w.(interface{ RequestID() string }); ok {
		if id := rw.RequestID(); id != "" {
			body["requestId"] = id
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(body)
}
