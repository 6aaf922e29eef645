package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"

	"kiter/internal/telemetry"
)

// FetchTraces collects the named trace's records from every configured
// peer over the pooled transport — the fan-out behind
// GET /debug/traces/{id}?fleet=1. Each peer is asked for its local records
// only (no fleet parameter, so fan-out never recurses), concurrently and
// best-effort: an unreachable or trace-less peer contributes nothing
// rather than failing the stitch. Breaker-open peers are skipped — the
// debug path must not add load to a peer the serving path already
// excluded.
func (c *Cluster) FetchTraces(ctx context.Context, traceID string) []telemetry.RecordedTrace {
	if len(c.peerList) == 0 {
		return nil
	}
	var mu sync.Mutex
	var out []telemetry.RecordedTrace
	var wg sync.WaitGroup
	for _, ps := range c.peerList {
		if !c.alive(ps.addr) {
			continue
		}
		wg.Add(1)
		go func(addr string) {
			defer wg.Done()
			recs := c.fetchPeerTraces(ctx, addr, traceID)
			if len(recs) == 0 {
				return
			}
			mu.Lock()
			out = append(out, recs...)
			mu.Unlock()
		}(ps.addr)
	}
	wg.Wait()
	return out
}

// fetchPeerTraces asks one peer for its records of traceID.
func (c *Cluster) fetchPeerTraces(ctx context.Context, addr, traceID string) []telemetry.RecordedTrace {
	ctx, cancel := context.WithTimeout(ctx, c.opTimeout())
	defer cancel()
	_, body, err := c.roundTrip(ctx, http.MethodGet, addr, "/debug/traces/"+traceID, nil, nil, 16<<20, http.StatusOK)
	if err != nil {
		return nil
	}
	var doc struct {
		Records []telemetry.RecordedTrace `json:"records"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil
	}
	return doc.Records
}
