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
	"kiter/internal/telemetry"
)

// maxForwardBody bounds a forwarded request body, mirroring the public
// API's cap.
const maxForwardBody = 64 << 20

// remoteSpan opens a handler-side root span joined to the caller's trace
// when the request carries a traceparent and the cluster has a flight
// recorder. The returned context carries the span; finish(status) closes
// it and records the tree under the caller's trace ID. Without trace
// context both returns are pass-through no-ops, so untraced internal
// traffic costs two header lookups.
func (c *Cluster) remoteSpan(r *http.Request, name, endpoint string) (context.Context, func(status int)) {
	ctx := r.Context()
	if c.cfg.Recorder == nil {
		return ctx, func(int) {}
	}
	sc, ok := telemetry.ParseTraceparent(r.Header.Get(telemetry.Traceparent))
	if !ok {
		return ctx, func(int) {}
	}
	span := telemetry.NewRemoteTrace(name, sc)
	if peer := r.Header.Get(peerHeader); peer != "" {
		span.SetString("caller", peer)
	}
	return telemetry.ContextWithSpan(ctx, span), func(status int) {
		c.cfg.Recorder.Finish(span, endpoint, c.self, r.Header.Get("X-Request-ID"), status)
	}
}

// statusCapture remembers the reply code for the handler-side trace
// record. RequestID passes through to the server's middleware writer so
// error bodies keep their correlation ID.
type statusCapture struct {
	http.ResponseWriter
	code int
}

func (s *statusCapture) WriteHeader(code int) {
	s.code = code
	s.ResponseWriter.WriteHeader(code)
}

func (s *statusCapture) RequestID() string {
	if rw, ok := s.ResponseWriter.(interface{ RequestID() string }); ok {
		return rw.RequestID()
	}
	return ""
}

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
// like everywhere else.
func (c *Cluster) EvaluateHandler(e *engine.Engine, timeout time.Duration) http.Handler {
	return http.HandlerFunc(func(pw http.ResponseWriter, r *http.Request) {
		sw := &statusCapture{ResponseWriter: pw, code: http.StatusOK}
		w := http.ResponseWriter(sw)
		ctx, finish := c.remoteSpan(r, "cluster.evaluate", "/cluster/evaluate")
		defer func() { finish(sw.code) }()
		if r.Method != http.MethodPost {
			writeError(w, http.StatusMethodNotAllowed, "POST required")
			return
		}
		req, err := decodeRequest(http.MaxBytesReader(w, r.Body, maxForwardBody), r.ContentLength)
		var mbe *http.MaxBytesError
		var readErr *sdf3x.ReadError
		switch {
		case errors.As(err, &mbe):
			writeError(w, http.StatusRequestEntityTooLarge, "body too large")
			return
		case errors.As(err, &readErr):
			writeError(w, http.StatusBadRequest, "reading body: "+readErr.Err.Error())
			return
		case err != nil:
			writeError(w, http.StatusBadRequest, err.Error())
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
				writeError(w, http.StatusServiceUnavailable, err.Error())
			case errors.Is(err, context.DeadlineExceeded):
				writeError(w, http.StatusGatewayTimeout, "evaluation timed out")
			default:
				writeError(w, http.StatusBadRequest, err.Error())
			}
			return
		}
		// Attribute the serve to the calling peer. Unknown senders (the
		// header is client-controlled) are ignored rather than given rows.
		if ps := c.peer(r.Header.Get(peerHeader)); ps != nil {
			ps.served.Add(1)
		}
		w.Header().Set("Content-Type", resultContentType)
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(resultcodec.Encode(res))
	})
}

func writeError(w http.ResponseWriter, code int, msg string) {
	body := map[string]string{"error": msg}
	// The serving middleware's writer carries the request's correlation ID;
	// include it in the error body so a failed client call names the server
	// trace to pull.
	if rw, ok := w.(interface{ RequestID() string }); ok {
		if id := rw.RequestID(); id != "" {
			body["requestId"] = id
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(body)
}
