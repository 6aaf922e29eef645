package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"kiter/internal/engine"
)

// point is one analysis answer: a throughput period, or the throughput
// section's error (a deadlock verdict).
type point struct {
	scenario int
	period   string
	errText  string
}

// outcome is one completed request as the client saw it.
type outcome struct {
	req        request
	start, end time.Time
	// failed counts analyses of the request that failed: all of them on a
	// transport error or non-2xx status, else sweep error lines and failed
	// scenarios; check adds wrong answers.
	failed  int
	failure string // first failure, for the log
	points  []point
	// Server-side fields: whether every answer came from the memo cache,
	// the evaluating peer (fleet forwards), and the server's own elapsed
	// time (evaluation for /analyze, the whole sweep for /sweep).
	cacheHit  bool
	peer      string
	elapsedMS float64
}

func (o *outcome) latency() time.Duration { return o.end.Sub(o.start) }

// send posts one request and reads the whole response; for a sweep that is
// the whole NDJSON stream, so latency runs to the end of the stream.
func send(client *http.Client, url string, req request) outcome {
	o := outcome{req: req, start: time.Now()}
	resp, err := client.Post(url+req.path, "application/json", bytes.NewReader(req.body))
	if err != nil {
		o.end = time.Now()
		o.failed, o.failure = req.analyses(), err.Error()
		return o
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.end = time.Now()
	switch {
	case err != nil:
		o.failed, o.failure = req.analyses(), err.Error()
	case resp.StatusCode != http.StatusOK:
		o.failed, o.failure = req.analyses(), fmt.Sprintf("%s: %.200s", resp.Status, body)
	case req.path == "/sweep":
		o.classifySweep(body, req.analyses())
	default:
		o.classifyAnalyze(body)
	}
	return o
}

func (o *outcome) classifyAnalyze(body []byte) {
	var resp struct {
		Result *engine.Result `json:"result"`
	}
	if err := json.Unmarshal(body, &resp); err != nil || resp.Result == nil {
		o.failed, o.failure = 1, fmt.Sprintf("undecodable /analyze reply: %.200s", body)
		return
	}
	r := resp.Result
	o.cacheHit, o.peer = r.CacheHit, r.Peer
	if !r.CacheHit && !r.Deduped {
		o.elapsedMS = r.ElapsedMS
	}
	o.points = []point{answer(0, r)}
}

// answer extracts the throughput answer of a result.
func answer(scenario int, r *engine.Result) point {
	p := point{scenario: scenario}
	if t := r.Throughput; t != nil {
		p.period, p.errText = t.Period, t.Error
	} else {
		p.errText = "no throughput section"
	}
	return p
}

// sweepLine is any line of a /sweep stream: a scenario point, the closing
// envelope, or an error line.
type sweepLine struct {
	Scenario *int           `json:"scenario"`
	Result   *engine.Result `json:"result"`
	Error    string         `json:"error"`
	Envelope *struct {
		ElapsedMS float64 `json:"elapsedMs"`
	} `json:"envelope"`
}

// classifySweep reads a /sweep stream. The status line is committed before
// the first scenario resolves, so a 200 alone says nothing: a stream that
// ends in an error line, lacks the closing envelope, or reports fewer
// scenario answers than asked for is a failure.
func (o *outcome) classifySweep(body []byte, want int) {
	broken := ""
	hits, scenarioErrs := 0, 0
	enveloped := false
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() && broken == "" {
		var l sweepLine
		switch err := json.Unmarshal(sc.Bytes(), &l); {
		case err != nil:
			broken = fmt.Sprintf("undecodable sweep line: %.200s", sc.Bytes())
		case enveloped:
			broken = "data after the sweep envelope"
		case l.Envelope != nil:
			enveloped = true
			o.elapsedMS = l.Envelope.ElapsedMS
		case l.Scenario == nil:
			broken = "sweep error line: " + l.Error
		case l.Error != "" || l.Result == nil:
			scenarioErrs++
			if o.failure == "" {
				o.failure = fmt.Sprintf("scenario %d: %s", *l.Scenario, l.Error)
			}
		default:
			o.points = append(o.points, answer(*l.Scenario, l.Result))
			if l.Result.CacheHit {
				hits++
			}
		}
	}
	switch {
	case broken != "":
	case sc.Err() != nil:
		broken = fmt.Sprintf("reading sweep stream: %v", sc.Err())
	case !enveloped:
		broken = "sweep stream has no closing envelope"
	case len(o.points)+scenarioErrs != want:
		broken = fmt.Sprintf("sweep stream answered %d of %d scenarios", len(o.points)+scenarioErrs, want)
	}
	o.failed = scenarioErrs
	if broken != "" {
		// The client cannot trust any answer of a broken stream.
		o.failed, o.failure = want, broken
	}
	o.cacheHit = hits == len(o.points) && hits > 0
}

// loadGen drives kiterd in a closed loop: each client sends its next
// request only after the previous one completed. Client c sends its k-th
// request to replica (c+k) mod len(targets), so clients alternate between
// replicas.
type loadGen struct {
	client  *http.Client
	targets []string
	wl      *workload
	seq     atomic.Uint64
	// Every request is sent under a read lock of pause, so whoever holds
	// the write lock knows that no request is in flight and none starts.
	pause   sync.RWMutex
	stopped bool // set under the write lock: clients send nothing more
}

// halt waits until no request is in flight and holds the load there until
// resume.
func (l *loadGen) halt() { l.pause.Lock() }

func (l *loadGen) resume() { l.pause.Unlock() }

// stop ends the load; the caller must hold it halted.
func (l *loadGen) stop() {
	l.stopped = true
	l.pause.Unlock()
}

// run keeps clients busy until stop and returns the outcomes that completed
// at or after from.
func (l *loadGen) run(clients int, from time.Time) []outcome {
	var mu sync.Mutex
	var kept []outcome
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []outcome
			for k := c; ; k++ {
				l.pause.RLock()
				if l.stopped {
					l.pause.RUnlock()
					break
				}
				o := send(l.client, l.targets[k%len(l.targets)], l.wl.request(l.seq.Add(1)-1))
				l.pause.RUnlock()
				if !o.end.Before(from) {
					// The check renders the body again from the seed; kept,
					// the bodies of one run would hold over 100 MB.
					o.req.body = nil
					mine = append(mine, o)
				}
			}
			mu.Lock()
			kept = append(kept, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return kept
}

// sendAll sends every request with the given number of clients (cycling
// through the targets) and reports the first failure.
func sendAll(client *http.Client, targets []string, reqs []request, clients int) error {
	var next atomic.Int64
	var firstErr error
	var mu sync.Mutex
	var wg sync.WaitGroup
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(len(reqs)) {
					return
				}
				o := send(client, targets[int(i)%len(targets)], reqs[i])
				if o.failed > 0 {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("priming request %d: %s", i, o.failure)
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}
