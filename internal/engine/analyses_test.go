package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"kiter/internal/csdf"
	"kiter/internal/gen"
	"kiter/internal/sizing"
	"kiter/internal/telemetry"
)

// TestScheduleSizingFromOneSchedule submits {schedule, sizing} together
// and each alone, with and without a throughput section: the shared
// schedule must leave every section byte-identical to the one a lone
// request gets. The sizing section also matches sizing.OptimalCapacitiesCtx,
// the computation the engine used to run for it. DeadlockedRing covers the
// section error, and Figure 2 with applied capacities a bounded graph.
func TestScheduleSizingFromOneSchedule(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 2})
	ctx := context.Background()
	for _, c := range []struct {
		name    string
		g       *csdf.Graph
		bounded bool
	}{
		{"figure2", gen.Figure2(), false},
		{"samplerate", gen.SampleRateConverter(), false},
		{"figure2-bounded", gen.Figure2().ScaleCapacities(1), true},
		{"deadlocked", gen.DeadlockedRing(), false},
	} {
		prepared := c.g
		if c.bounded {
			var err error
			if prepared, err = c.g.WithCapacities(); err != nil {
				t.Fatal(err)
			}
		}
		caps, period, capErr := sizing.OptimalCapacitiesCtx(ctx, prepared, e.cfg.Options)
		wantSizing := &SizingResult{Capacities: caps, Period: period.String()}
		if capErr != nil {
			wantSizing = &SizingResult{Error: capErr.Error()}
		}
		for _, withThroughput := range []bool{false, true} {
			submit := func(kinds ...AnalysisKind) *Result {
				t.Helper()
				if withThroughput {
					kinds = append([]AnalysisKind{AnalysisThroughput}, kinds...)
				}
				res, err := e.Submit(ctx, &Request{
					Graph:           c.g,
					Method:          MethodKIter,
					Analyses:        kinds,
					ApplyCapacities: c.bounded,
					NoCache:         true,
				})
				if err != nil {
					t.Fatalf("%s %v: %v", c.name, kinds, err)
				}
				return res
			}
			both := submit(AnalysisSchedule, AnalysisSizing)
			scheduleAlone := submit(AnalysisSchedule)
			sizingAlone := submit(AnalysisSizing)
			label := fmt.Sprintf("%s (throughput section: %v)", c.name, withThroughput)
			requireSameJSON(t, label+" schedule", both.Schedule, scheduleAlone.Schedule)
			requireSameJSON(t, label+" sizing", both.Sizing, sizingAlone.Sizing)
			requireSameJSON(t, label+" sizing vs OptimalCapacitiesCtx", both.Sizing, wantSizing)
		}
	}
}

func requireSameJSON(t *testing.T, what string, got, want any) {
	t.Helper()
	g, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	w, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if string(g) != string(w) {
		t.Fatalf("%s:\n got %s\nwant %s", what, g, w)
	}
}

// TestScheduleSizingRunKIterOnce traces a {schedule, sizing} submission
// without a throughput section: K-Iter runs once, so its round spans sit
// under exactly one analysis span.
func TestScheduleSizingRunKIterOnce(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 2})
	root := telemetry.NewTrace("test")
	_, err := e.Submit(telemetry.ContextWithSpan(context.Background(), root), &Request{
		Graph:    gen.KIterChain(4),
		Method:   MethodKIter,
		Analyses: []AnalysisKind{AnalysisSchedule, AnalysisSizing},
	})
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	var withRounds []string
	var walk func(n *telemetry.SpanNode)
	walk = func(n *telemetry.SpanNode) {
		if strings.HasPrefix(n.Name, "analysis.") {
			for _, ch := range n.Children {
				if strings.HasPrefix(ch.Name, "round.") {
					withRounds = append(withRounds, n.Name)
					break
				}
			}
		}
		for _, ch := range n.Children {
			walk(ch)
		}
	}
	walk(root.Snapshot())
	if len(withRounds) != 1 {
		t.Fatalf("K-Iter round spans under %v, want exactly one analysis span", withRounds)
	}
}
