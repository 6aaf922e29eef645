package sdf3x_test

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/iotest"

	"kiter/internal/csdf"
	"kiter/internal/gen"
	"kiter/internal/sdf3x"
)

func compactJSON(t *testing.T, g *csdf.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := sdf3x.WriteCompactJSON(&buf, g); err != nil {
		t.Fatal(err)
	}
	return bytes.TrimSpace(buf.Bytes())
}

// readRequest reads body through ReadRequest with its length as the hint.
func readRequest(body []byte) (*csdf.Graph, *sdf3x.Envelope, error) {
	f, env, err := sdf3x.ReadRequest(bytes.NewReader(body), int64(len(body)))
	return f.Graph(), env, err
}

// TestReadRequestOwnsBody checks that nothing ReadRequest returns aliases
// the body it read into the pooled buffer: a graph, envelope or error
// decoded from a body is unchanged after the next body is read into the
// same buffer. That next body is the first one upper-cased: the same
// length, so it overwrites every letter, and still a request, since keys
// match fields case-insensitively.
func TestReadRequestOwnsBody(t *testing.T) {
	video := compactJSON(t, gen.VideoPipeline())
	envelope := []byte(`{"graph":` + string(video) + `,"analyses":["throughput","schedule"],"method":"kiter"}`)
	for name, body := range map[string][]byte{"bare": video, "envelope": envelope} {
		g, env, err := readRequest(body)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var analyses []string
		var method string
		if env != nil {
			analyses, method = slices.Clone(env.Analyses), strings.Clone(env.Method)
		}
		if _, _, err := readRequest(bytes.ToUpper(body)); err != nil {
			t.Fatalf("%s upper-cased: %v", name, err)
		}
		want, err := sdf3x.ReadJSONReflect(video)
		if err != nil {
			t.Fatal(err)
		}
		sameGraph(t, g, want)
		if env != nil && (!slices.Equal(env.Analyses, analyses) || env.Method != method) {
			t.Fatalf("%s: envelope changed to %+v", name, env)
		}
	}

	for _, body := range []string{
		`{"graph":{},"shiny":true}`,
		`{"graph":{},"method":7}`,
		`{"tasks":[{"name":"a","durations":[1e3]}]}`,
		`{"tasks":[{"name":"a","durations":[1]}],"buffers":[{"name":"ab","src":"a","dst":"zz","in":[1],"out":[1]}]}`,
		`{"tasks":[{"name":"aa"},{"name":"aa"}]}`,
		`{"graph":{"tasks":[]}} trailing`,
	} {
		_, _, err := readRequest([]byte(body))
		if err == nil {
			t.Fatalf("%s accepted", body)
		}
		msg := strings.Clone(err.Error())
		_, _, _ = readRequest(bytes.ToUpper([]byte(body)))
		if err.Error() != msg {
			t.Fatalf("error on %s changed from %q to %q", body, msg, err)
		}
	}
}

// TestReadRequestReadErrors checks that a failed read is a ReadError that
// still matches the reader's error, and that a size hint larger than the
// body (a lying Content-Length) is harmless.
func TestReadRequestReadErrors(t *testing.T) {
	boom := errors.New("boom")
	_, _, err := sdf3x.ReadRequest(io.MultiReader(strings.NewReader(`{"tasks":`), iotest.ErrReader(boom)), -1)
	var readErr *sdf3x.ReadError
	if !errors.As(err, &readErr) || !errors.Is(err, boom) {
		t.Fatalf("failing reader: got %v, want a ReadError wrapping %v", err, boom)
	}

	body := string(compactJSON(t, gen.Figure2()))
	_, _, err = sdf3x.ReadRequest(http.MaxBytesReader(nil, io.NopCloser(strings.NewReader(body)), 16), int64(len(body)))
	var mbe *http.MaxBytesError
	if !errors.As(err, &readErr) || !errors.As(err, &mbe) || mbe.Limit != 16 {
		t.Fatalf("over-cap body: got %v, want a ReadError wrapping an *http.MaxBytesError", err)
	}

	if _, _, err := sdf3x.ReadRequest(strings.NewReader(body), 1<<50); err != nil {
		t.Fatalf("oversized hint: %v", err)
	}
}

// TestReadRequestAllocations pins ReadRequest's allocations on BlackScholes
// (41 tasks, 41 buffers, 4.3 KB compact) with a warm pool and the body's
// length as the hint: the body is read into the pooled buffer, so what is
// left is the graph — 83 name strings, the slab, the task and buffer arrays
// and the graph itself, 88 in all. The race detector drops pooled scratch
// at random, which adds up to about ten.
func TestReadRequestAllocations(t *testing.T) {
	g, err := gen.Industrial(gen.IndustrialSpecs()[0])
	if err != nil {
		t.Fatal(err)
	}
	body := compactJSON(t, g)
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := readRequest(body); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 106 {
		t.Errorf("ReadRequest allocates %.0f objects on a %d-task, %d-buffer graph, want ≤ 106",
			allocs, g.NumTasks(), g.NumBuffers())
	}
}

// TestReadRequestConcurrent decodes different bodies from several
// goroutines at once, so pooled decoders and their body buffers pass
// between goroutines; each graph must come out as its own body says.
func TestReadRequestConcurrent(t *testing.T) {
	graphs := []*csdf.Graph{gen.Figure2(), gen.VideoPipeline(), gen.KIterChain(16), gen.CyclicCSDF()}
	var wg sync.WaitGroup
	for _, g := range graphs {
		body, want := compactJSON(t, g), g.FingerprintHex()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 50 {
				got, _, err := readRequest(body)
				if err != nil {
					t.Error(err)
					return
				}
				if got.Name != g.Name || got.FingerprintHex() != want {
					t.Errorf("%s decoded as %s (%s)", g.Name, got.Name, got.FingerprintHex())
					return
				}
			}
		}()
	}
	wg.Wait()
}
