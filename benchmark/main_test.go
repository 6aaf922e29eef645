package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

const benchJSON = "../BENCHMARK.json"

func TestDeclarationMatchesWorkloads(t *testing.T) {
	spec, err := loadSpec(benchJSON)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, w := range spec.Workloads {
		got = append(got, w.Name)
	}
	if strings.Join(got, ",") != strings.Join(workloadNames, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", got, workloadNames)
	}
}

// TestRunPrintsDeclaredMetrics builds kiterd, runs a one-second analyze-warm
// measurement in both modes and checks that every metric printed, as a
// line or in the JSON result, is declared in BENCHMARK.json, and that
// every declared metric is printed.
func TestRunPrintsDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives kiterd")
	}
	dir := t.TempDir()
	kiterd := filepath.Join(dir, "kiterd")
	build := exec.Command("go", "build", "-o", kiterd, "kiter/cmd/kiterd")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("building kiterd: %v", err)
	}
	spec, err := loadSpec(benchJSON)
	if err != nil {
		t.Fatal(err)
	}
	for trace, decls := range map[string][]declared{"0": spec.EndToEnd, "1": spec.PerLayer} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"--workload", analyzeWarm, "--seed", "3", "--seconds", "1", "--trace", trace,
			"-kiterd", kiterd, "-out", dir, "-bench", benchJSON}, &stdout, &stderr)
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %s: exit %d, last line %q: %v\n%s", trace, code, lines[len(lines)-1], err, stderr.String())
		}
		if code != 0 || !res.Correct || res.Attempted == 0 || res.Failed != 0 {
			t.Errorf("trace %s: exit %d, result %+v\n%s", trace, code, res, stderr.String())
		}
		var want, printed, inJSON []string
		for _, d := range decls {
			want = append(want, d.Name+" "+d.Unit)
		}
		for _, l := range lines[:len(lines)-1] {
			f := strings.Fields(l)
			printed = append(printed, f[0]+" "+f[len(f)-1])
		}
		for name, m := range res.Metrics {
			inJSON = append(inJSON, name+" "+m.Unit)
		}
		sort.Strings(want)
		sort.Strings(printed)
		sort.Strings(inJSON)
		if strings.Join(printed, ",") != strings.Join(want, ",") || strings.Join(inJSON, ",") != strings.Join(want, ",") {
			t.Errorf("trace %s: printed %v\nJSON %v\ndeclared %v", trace, printed, inJSON, want)
		}
		if trace == "1" {
			data, err := os.ReadFile(filepath.Join(dir, "trace-"+analyzeWarm+".json"))
			var doc struct{ Spans []span }
			if err == nil {
				err = json.Unmarshal(data, &doc)
			}
			if err != nil || len(doc.Spans) == 0 {
				t.Errorf("traced run's trace file: %d spans, %v", len(doc.Spans), err)
			}
		}
	}
}
