package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"

	"kiter/internal/engine"
	"kiter/internal/resultcodec"
	"kiter/internal/sdf3x"
)

// wireRequest is the body of POST /cluster/evaluate: the original graph in
// the repository's JSON format plus the normalized request knobs, so the
// receiving engine prepares the job exactly as a direct submission and
// lands on the same cache key — that shared key is what makes the owner's
// singleflight and memo cache deduplicate across the whole fleet.
type wireRequest struct {
	Graph      json.RawMessage `json:"graph"`
	Analyses   []string        `json:"analyses,omitempty"`
	Method     string          `json:"method,omitempty"`
	Capacities bool            `json:"capacities,omitempty"`
	NoCache    bool            `json:"noCache,omitempty"`
}

// encodeJob serializes a dispatch job for the forward hop.
func encodeJob(job *engine.DispatchJob) ([]byte, error) {
	var g bytes.Buffer
	if err := sdf3x.WriteJSON(&g, job.Graph); err != nil {
		return nil, fmt.Errorf("cluster: encoding graph: %w", err)
	}
	wr := wireRequest{
		Graph:      g.Bytes(),
		Method:     string(job.Method),
		Capacities: job.ApplyCapacities,
		NoCache:    job.NoCache,
	}
	for _, a := range job.Analyses {
		wr.Analyses = append(wr.Analyses, string(a))
	}
	return json.Marshal(wr)
}

// decodeRequest parses a forwarded body back into an engine request. The
// envelope is decoded strictly — a field this replica does not know means
// a version skew worth failing loudly (the sender then falls back to local
// evaluation) rather than silently dropping a knob.
func decodeRequest(body []byte) (*engine.Request, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var wr wireRequest
	if err := dec.Decode(&wr); err != nil {
		return nil, fmt.Errorf("cluster: decoding request: %w", err)
	}
	g, err := sdf3x.ReadJSON(bytes.NewReader(wr.Graph))
	if err != nil {
		return nil, fmt.Errorf("cluster: decoding graph: %w", err)
	}
	req := &engine.Request{
		Graph:           g,
		Method:          engine.Method(wr.Method),
		ApplyCapacities: wr.Capacities,
		NoCache:         wr.NoCache,
		// One hop only: the owner evaluates even if its own ring view says
		// someone else should (health views can diverge transiently).
		NoForward: true,
	}
	for _, a := range wr.Analyses {
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
