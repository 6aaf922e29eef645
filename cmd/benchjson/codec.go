package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	"kiter/internal/csdf"
	"kiter/internal/engine"
	"kiter/internal/gen"
	"kiter/internal/resultcodec"
)

// CodecCase compares the two result encodings on one real analysis result:
// record size and encode/decode cost for encoding/json versus
// internal/resultcodec — the frames cachedisk segments store, forwarded
// evaluations return and the fleet tier's successor reads move.
type CodecCase struct {
	Name       string `json:"name"`
	JSONBytes  int    `json:"json_bytes"`
	CodecBytes int    `json:"codec_bytes"`
	// SizeRatio is json/codec (>1 = the binary frame is smaller).
	SizeRatio     float64 `json:"size_ratio"`
	JSONEncodeNs  float64 `json:"json_encode_ns_op"`
	JSONDecodeNs  float64 `json:"json_decode_ns_op"`
	CodecEncodeNs float64 `json:"codec_encode_ns_op"`
	CodecDecodeNs float64 `json:"codec_decode_ns_op"`
}

// CodecReport is the BENCH_codec_*.json document.
type CodecReport struct {
	Label     string      `json:"label"`
	GoVersion string      `json:"go_version"`
	GOARCH    string      `json:"goarch"`
	Cases     []CodecCase `json:"cases"`
}

// codecGraphs is the fixture set: the paper's running examples plus a
// generated mimicdsp instance, analyzed with every section populated so the
// comparison covers the full Result surface.
func codecGraphs() (map[string]*csdf.Graph, []string, error) {
	suite, err := gen.SuiteByName("mimicdsp", 1, 1)
	if err != nil {
		return nil, nil, err
	}
	if len(suite.Graphs) == 0 {
		return nil, nil, fmt.Errorf("mimicdsp suite came back empty")
	}
	order := []string{"figure2", "samplerate", "mimicdsp"}
	return map[string]*csdf.Graph{
		"figure2":    gen.Figure2(),
		"samplerate": gen.SampleRateConverter(),
		"mimicdsp":   suite.Graphs[0],
	}, order, nil
}

func runCodec(out, label string) error {
	e := engine.New(engine.Config{Workers: 2})
	defer e.Close()
	graphs, order, err := codecGraphs()
	if err != nil {
		return err
	}
	rep := CodecReport{Label: label, GoVersion: runtime.Version(), GOARCH: runtime.GOARCH}
	for _, name := range order {
		res, err := e.Submit(context.Background(), &engine.Request{
			Graph:  graphs[name],
			Method: engine.MethodKIter,
			Analyses: []engine.AnalysisKind{
				engine.AnalysisThroughput, engine.AnalysisSchedule, engine.AnalysisSizing,
			},
		})
		if err != nil {
			return fmt.Errorf("case %s: %w", name, err)
		}
		// Strip the per-submission fields exactly as the cache and wire
		// paths do, so the comparison measures stored records.
		res.Graph = ""
		res.CacheHit = false
		res.Deduped = false

		jsonBytes, err := json.Marshal(res)
		if err != nil {
			return err
		}
		frame := resultcodec.Encode(res)
		cc := CodecCase{
			Name:       name,
			JSONBytes:  len(jsonBytes),
			CodecBytes: len(frame),
		}
		if len(frame) > 0 {
			cc.SizeRatio = float64(len(jsonBytes)) / float64(len(frame))
		}
		cc.JSONEncodeNs = benchNs(func() { _, _ = json.Marshal(res) })
		cc.JSONDecodeNs = benchNs(func() {
			var r engine.Result
			_ = json.Unmarshal(jsonBytes, &r)
		})
		cc.CodecEncodeNs = benchNs(func() { _ = resultcodec.Encode(res) })
		cc.CodecDecodeNs = benchNs(func() { _, _ = resultcodec.Decode(frame) })
		fmt.Printf("%-12s json=%6dB codec=%6dB (%.2fx)  enc %7.0f vs %7.0f ns  dec %7.0f vs %7.0f ns\n",
			name, cc.JSONBytes, cc.CodecBytes, cc.SizeRatio,
			cc.JSONEncodeNs, cc.CodecEncodeNs, cc.JSONDecodeNs, cc.CodecDecodeNs)
		rep.Cases = append(rep.Cases, cc)
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	return os.WriteFile(out, buf, 0o644)
}

// benchNs measures one operation via testing.Benchmark.
func benchNs(op func()) float64 {
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			op()
		}
	})
	return float64(res.T.Nanoseconds()) / float64(res.N)
}
