package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"kiter/internal/engine"
	"kiter/internal/jsonw"
	"kiter/internal/sdf3x"
)

// collectBatchPaths resolves the -batch argument: a directory yields every
// .json/.xml file under it (sorted); a regular file is read as a manifest
// of one graph path per line (relative paths resolve against the manifest
// location; blank lines and #-comments are skipped).
func collectBatchPaths(arg string) ([]string, error) {
	info, err := os.Stat(arg)
	if err != nil {
		return nil, err
	}
	if info.IsDir() {
		var paths []string
		err := filepath.WalkDir(arg, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				return nil
			}
			switch strings.ToLower(filepath.Ext(path)) {
			case ".json", ".xml":
				paths = append(paths, path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		sort.Strings(paths)
		if len(paths) == 0 {
			return nil, fmt.Errorf("no .json or .xml graphs under %s", arg)
		}
		return paths, nil
	}
	f, err := os.Open(arg)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	base := filepath.Dir(arg)
	var paths []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !filepath.IsAbs(line) {
			line = filepath.Join(base, line)
		}
		paths = append(paths, line)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("manifest %s lists no graphs", arg)
	}
	return paths, nil
}

// ndjsonLine is the JSON shape of one streamed batch result.
type ndjsonLine struct {
	Path   string         `json:"path"`
	Error  string         `json:"error,omitempty"`
	Result *engine.Result `json:"result,omitempty"`
}

// appendJSON appends l's NDJSON line: the bytes
// json.NewEncoder(w).Encode(l) writes, trailing newline included.
func (l *ndjsonLine) appendJSON(b []byte) ([]byte, error) {
	start := len(b)
	b = jsonw.String(append(b, `{"path":`...), l.Path)
	if l.Error != "" {
		b = jsonw.String(jsonw.Key(b, "error"), l.Error)
	}
	if l.Result != nil {
		var err error
		if b, err = l.Result.AppendJSON(jsonw.Key(b, "result")); err != nil {
			return b[:start], err
		}
	}
	return append(b, '}', '\n'), nil
}

// ndjsonSummary closes a batch stream with the batch totals; Stats is the
// engine activity the batch itself caused.
type ndjsonSummary struct {
	Summary struct {
		Graphs    int          `json:"graphs"`
		Failed    int          `json:"failed"`
		ElapsedMS float64      `json:"elapsed_ms"`
		Stats     engine.Stats `json:"stats"`
	} `json:"summary"`
}

// runBatch streams the graphs at paths through the engine as one family
// and writes NDJSON to out: one {"path", "result"|"error"} line per graph
// in completion order, the moment each job finishes, then a single
// {"summary": …} line. Graphs that fail to load or analyze are reported
// inline and do not abort the batch; the returned error counts them. A
// write error on out cancels the remaining graphs and is returned.
func runBatch(e *engine.Engine, paths []string, tmpl requestTemplate, out io.Writer) error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var sum ndjsonSummary
	var buf []byte // done is serialized, so one line buffer serves the batch
	var writeErr error
	build := func(i int) (*engine.Request, error) {
		f, err := sdf3x.ReadFile(paths[i])
		if err != nil {
			return nil, err
		}
		return &engine.Request{
			Facts:           f,
			Analyses:        tmpl.Analyses,
			Method:          tmpl.Method,
			ApplyCapacities: tmpl.Capacities,
		}, nil
	}
	before := e.Stats()
	start := time.Now()
	err := e.SubmitFamily(ctx, len(paths), engine.FamilyConfig{MemberTimeout: tmpl.Timeout}, build, func(fr engine.FamilyResult) {
		line := ndjsonLine{Path: paths[fr.Index], Result: fr.Result}
		if fr.Err != nil {
			sum.Summary.Failed++
			line.Error = fr.Err.Error()
		}
		if writeErr != nil {
			return // out is broken; drain the in-flight tail silently
		}
		if buf, writeErr = line.appendJSON(buf[:0]); writeErr == nil {
			_, writeErr = out.Write(buf)
		}
		if writeErr != nil {
			cancel()
		}
	})
	if writeErr != nil {
		return writeErr
	}
	if err != nil {
		return err
	}
	sum.Summary.Graphs = len(paths)
	sum.Summary.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
	sum.Summary.Stats = e.Stats().Delta(before)
	if err := json.NewEncoder(out).Encode(sum); err != nil {
		return err
	}
	if sum.Summary.Failed > 0 {
		return fmt.Errorf("%d of %d graphs failed", sum.Summary.Failed, len(paths))
	}
	return nil
}
