package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"slices"
	"testing"

	"kiter/internal/csdf"
	"kiter/internal/sdf3x"
)

// analyzeEnvelope and decodeAnalyzeOracle are the three-step /analyze
// decode that sdf3x.ReadRequest replaced: a json.Unmarshal probe for the
// "graph" key, a strict json.Decoder pass for envelopes, then
// sdf3x.ReadJSON on the graph. (FuzzReadJSON holds ReadJSON to the
// reflection decoder, so the two targets together compare ReadRequest
// with the whole reflection path.) A non-nil envelope means envelope mode;
// reqErr and graphErr are the "decoding request" and "decoding graph" 400s.
type analyzeEnvelope struct {
	Graph      json.RawMessage `json:"graph"`
	Analyses   []string        `json:"analyses"`
	Method     string          `json:"method"`
	Capacities *bool           `json:"capacities"`
	NoCache    bool            `json:"noCache"`
}

func decodeAnalyzeOracle(body []byte) (g *csdf.Graph, env *analyzeEnvelope, reqErr, graphErr error) {
	var probe struct {
		Graph json.RawMessage `json:"graph"`
	}
	if err := json.Unmarshal(body, &probe); err != nil {
		return nil, nil, err, nil
	}
	graphJSON := body
	if probe.Graph != nil {
		env = new(analyzeEnvelope)
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(env); err != nil {
			return nil, nil, err, nil
		}
		graphJSON = env.Graph
	}
	g, err := sdf3x.ReadJSON(bytes.NewReader(graphJSON))
	if err != nil {
		return nil, nil, nil, err
	}
	return g, env, nil, nil
}

// FuzzDecodeAnalyze holds the one-pass /analyze decode to the three-step
// path: the same error class, and on success the same mode, knobs and
// graph. The seed corpus in testdata/fuzz/FuzzDecodeAnalyze holds bare
// graphs, envelopes with every knob and the parity cases (case-folded and
// repeated keys, null knobs and graphs, unknown keys in either mode,
// non-object bodies, trailing data).
func FuzzDecodeAnalyze(f *testing.F) {
	f.Add([]byte(`{"graph":{"tasks":[{"name":"a","durations":[1]}]},"method":"kiter"}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		f, env, err := sdf3x.ReadRequest(bytes.NewReader(body), int64(len(body)))
		g := f.Graph()
		wantG, wantEnv, wantReqErr, wantGraphErr := decodeAnalyzeOracle(body)
		var reqErr *sdf3x.RequestError
		switch {
		case (wantReqErr != nil) != errors.As(err, &reqErr):
			t.Fatalf("request error on %q: got %v, want %v", body, err, wantReqErr)
		case (wantGraphErr != nil) != (err != nil && reqErr == nil):
			t.Fatalf("graph error on %q: got %v, want %v", body, err, wantGraphErr)
		case err != nil:
			return
		case (env == nil) != (wantEnv == nil):
			t.Fatalf("mode on %q: envelope %v, want %v", body, env != nil, wantEnv != nil)
		}
		if env != nil {
			if !slices.Equal(env.Analyses, wantEnv.Analyses) || env.Method != wantEnv.Method ||
				env.NoCache != wantEnv.NoCache || (env.Capacities == nil) != (wantEnv.Capacities == nil) ||
				env.Capacities != nil && *env.Capacities != *wantEnv.Capacities {
				t.Fatalf("knobs on %q: got %+v, want %+v", body, env, wantEnv)
			}
		}
		if g.FingerprintHex() != wantG.FingerprintHex() || g.Name != wantG.Name {
			t.Fatalf("graph on %q differs", body)
		}
		for i := range g.Tasks() {
			if g.Task(csdf.TaskID(i)).Name != wantG.Task(csdf.TaskID(i)).Name {
				t.Fatalf("task %d name on %q differs", i, body)
			}
		}
		for i := range g.Buffers() {
			if g.Buffer(csdf.BufferID(i)).Name != wantG.Buffer(csdf.BufferID(i)).Name {
				t.Fatalf("buffer %d name on %q differs", i, body)
			}
		}
	})
}
