package main

import (
	"net/http"
	"sort"
	"strconv"
	"strings"

	"kiter/internal/telemetry"
)

// defaultTraceListLimit bounds an unqualified listing.
const defaultTraceListLimit = 64

// handleDebugTraces serves GET /debug/traces: the flight recorder's
// retained traces, newest first, without their span trees — the listing
// decodes none; pull a tree via /debug/traces/{id}. ?limit=N bounds the
// listing (default 64); ?errors=1 filters to errored traces.
func (s *server) handleDebugTraces(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	limit := defaultTraceListLimit
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			httpError(w, http.StatusBadRequest, "limit must be a positive integer")
			return
		}
		limit = n
	}
	onlyErrors := boolParam(r, "errors")
	recs := s.obs.recorder.List(0)
	listed := make([]telemetry.RecordedTrace, 0, len(recs))
	for _, rec := range recs {
		if onlyErrors && !rec.Error {
			continue
		}
		if len(listed) == limit {
			break
		}
		listed = append(listed, rec)
	}
	writeJSONIndent(w, http.StatusOK, map[string]any{
		"recorded": s.obs.recorder.Added(),
		"retained": len(recs),
		"traces":   listed,
	})
}

// handleDebugTrace serves GET /debug/traces/{id}. The plain form returns
// this process's records for the trace — the shape peers consume during a
// fleet stitch. With ?fleet=1 it also asks every alive peer for their
// records of the same trace and stitches all subtrees into one logical
// tree spanning processes: remote handler roots graft under the local
// client spans whose IDs they carry as parents.
func (s *server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/debug/traces/")
	if id == "" || strings.Contains(id, "/") {
		httpError(w, http.StatusNotFound, "trace id required")
		return
	}
	records := s.obs.recorder.Get(id)
	if !boolParam(r, "fleet") {
		if len(records) == 0 {
			httpError(w, http.StatusNotFound, "trace %s not recorded here", id)
			return
		}
		writeJSONIndent(w, http.StatusOK, map[string]any{
			"traceId": id,
			"records": records,
		})
		return
	}
	if s.cl != nil {
		records = append(records, s.cl.FetchTraces(r.Context(), id)...)
	}
	if len(records) == 0 {
		httpError(w, http.StatusNotFound, "trace %s not recorded anywhere reachable", id)
		return
	}
	procs := map[string]bool{}
	for _, rec := range records {
		if rec.Process != "" {
			procs[rec.Process] = true
		}
	}
	processes := make([]string, 0, len(procs))
	for p := range procs {
		processes = append(processes, p)
	}
	sort.Strings(processes)
	roots, detached := telemetry.Stitch(records)
	writeJSONIndent(w, http.StatusOK, map[string]any{
		"traceId":   id,
		"processes": processes,
		"records":   len(records),
		"detached":  detached,
		"spans":     roots,
	})
}
