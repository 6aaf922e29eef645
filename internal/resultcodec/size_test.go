package resultcodec

import (
	"context"
	"encoding/json"
	"testing"

	"kiter/internal/csdf"
	"kiter/internal/engine"
	"kiter/internal/gen"
)

// TestCodecFrameSmallerThanJSON analyzes the paper's running examples and
// a generated MimicDSP graph with every K-Iter section populated, strips
// the per-submission fields as the cache and wire paths do, and requires
// each binary frame to be shorter than the same result's JSON: the codec
// exists to make the records cachedisk stores and forwards move smaller.
func TestCodecFrameSmallerThanJSON(t *testing.T) {
	suite, err := gen.SuiteByName("mimicdsp", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(suite.Graphs) == 0 {
		t.Fatal("mimicdsp suite came back empty")
	}
	e := engine.New(engine.Config{Workers: 2})
	defer e.Close()
	for _, c := range []struct {
		name string
		g    *csdf.Graph
	}{
		{"figure2", gen.Figure2()},
		{"samplerate", gen.SampleRateConverter()},
		{"mimicdsp", suite.Graphs[0]},
	} {
		res, err := e.Submit(context.Background(), &engine.Request{
			Graph:  c.g,
			Method: engine.MethodKIter,
			Analyses: []engine.AnalysisKind{
				engine.AnalysisThroughput, engine.AnalysisSchedule, engine.AnalysisSizing,
			},
		})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if res.Throughput == nil || res.Throughput.Error != "" || res.Schedule == nil || res.Schedule.Error != "" ||
			res.Sizing == nil || res.Sizing.Error != "" {
			t.Fatalf("%s: want every section answered, got %+v", c.name, res)
		}
		res.Graph = ""
		res.CacheHit = false
		res.Deduped = false
		js, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		frame := Encode(res)
		t.Logf("%s: frame %d B, JSON %d B", c.name, len(frame), len(js))
		if len(frame) >= len(js) {
			t.Errorf("%s: frame is %d bytes, JSON %d: the binary record must be smaller", c.name, len(frame), len(js))
		}
	}
}
