package cluster

import (
	"errors"
	"fmt"
	"io"

	"kiter/internal/engine"
	"kiter/internal/jsonw"
	"kiter/internal/resultcodec"
	"kiter/internal/sdf3x"
)

// encodeJob serializes a dispatch job for the forward hop. The body is an
// /analyze envelope in one buffer: the original graph under "graph",
// written by sdf3x.AppendJSON, and the normalized knobs beside it
// ("analyses", "method", "capacities", "noCache", each left out when
// empty), so the receiving engine prepares the job exactly as a direct
// submission and lands on the same cache key. That shared key is what
// makes the owner's singleflight and memo cache deduplicate across the
// whole fleet.
func encodeJob(job *engine.DispatchJob) []byte {
	b := sdf3x.AppendJSON([]byte(`{"graph":`), job.Graph)
	if len(job.Analyses) > 0 {
		b = append(jsonw.Key(b, "analyses"), '[')
		for i, a := range job.Analyses {
			if i > 0 {
				b = append(b, ',')
			}
			b = jsonw.String(b, string(a))
		}
		b = append(b, ']')
	}
	if job.Method != "" {
		b = jsonw.String(jsonw.Key(b, "method"), string(job.Method))
	}
	if job.ApplyCapacities {
		b = jsonw.Bool(jsonw.Key(b, "capacities"), true)
	}
	if job.NoCache {
		b = jsonw.Bool(jsonw.Key(b, "noCache"), true)
	}
	return append(b, '}')
}

// decodeRequest reads a forwarded body from r and parses it back into an
// engine request with the one-pass envelope decoder; sizeHint is the
// body's length when known. A failed read comes back as the
// *sdf3x.ReadError. The envelope is strict — a field this replica does not
// know means a version skew worth failing loudly (the sender then falls
// back to local evaluation) rather than silently dropping a knob — and a
// body without a "graph" key is rejected.
func decodeRequest(r io.Reader, sizeHint int64) (*engine.Request, error) {
	f, env, err := sdf3x.ReadRequest(r, sizeHint)
	var readErr *sdf3x.ReadError
	var reqErr *sdf3x.RequestError
	switch {
	case errors.As(err, &readErr):
		return nil, err
	case errors.As(err, &reqErr):
		return nil, fmt.Errorf("cluster: decoding request: %w", reqErr.Err)
	case err != nil:
		return nil, fmt.Errorf("cluster: decoding graph: %w", err)
	case env == nil:
		return nil, errors.New(`cluster: decoding request: no "graph" key`)
	}
	req := &engine.Request{
		Facts:           f,
		Method:          engine.Method(env.Method),
		ApplyCapacities: env.Capacities != nil && *env.Capacities,
		NoCache:         env.NoCache,
		// One hop only: the owner evaluates even if its own ring view says
		// someone else should (health views can diverge transiently).
		NoForward: true,
	}
	for _, a := range env.Analyses {
		req.Analyses = append(req.Analyses, engine.AnalysisKind(a))
	}
	return req, nil
}

// decodeBinaryResult parses a peer's resultcodec reply — the only result
// encoding on /cluster/evaluate and the cache tier — and normalizes the
// per-submission fields: the forwarding engine re-applies its own graph
// name and dedup flags, and CacheHit/Peer describe the remote serve, not
// the local one.
func decodeBinaryResult(body []byte, peer string) (*engine.Result, error) {
	res, err := resultcodec.Decode(body)
	if err != nil {
		return nil, fmt.Errorf("cluster: decoding result: %w", err)
	}
	return normalizeRemote(res, peer), nil
}

// normalizeRemote strips the sender's per-submission fields and stamps the
// result's fleet origin.
func normalizeRemote(res *engine.Result, peer string) *engine.Result {
	res.Graph = ""
	res.CacheHit = false
	res.Deduped = false
	res.Peer = peer
	return res
}
