package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	remi "github.com/remi-kb/remi"
	"github.com/remi-kb/remi/internal/server"
)

// goldenKey names one answer the goldens must supply: a target set (see
// setKey) mined with a metric and a top_k.
type goldenKey struct {
	metric string
	topK   int
	set    string
}

// op is one HTTP request of a workload.
type op struct {
	path  string
	body  []byte
	keys  []goldenKey   // the target sets a mining request asks about
	write int           // ops of a facts batch; 0 for mining requests
	due   time.Duration // scheduled send, as an offset from the open loop's start
}

// result is an op with its outcome. answers[i] answers op.keys[i].
type result struct {
	op      *op
	answers []string
	err     error         // transport error, non-2xx, malformed or timed-out answer
	lat     time.Duration // see openLoop and closedLoop for where it starts
	start   time.Duration // where lat starts, as an offset from the loop's start
	late    time.Duration // open loop: how late the generator's timer fired
	backlog time.Duration // open loop: how long a due op waited for a free connection
	done    time.Duration // completion, as an offset from the loop's start
}

// loadgen sends ops to one server over at most `workers` connections, from
// at most `workers` goroutines.
type loadgen struct {
	base    string
	client  *http.Client
	workers int
}

func newLoadgen(base string, workers int) *loadgen {
	tr := &http.Transport{MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers, DisableCompression: true}
	return &loadgen{base: base, client: &http.Client{Transport: tr, Timeout: 2 * time.Minute}, workers: workers}
}

func (d *loadgen) close() { d.client.CloseIdleConnections() }

// openLoop sends ops on their schedule (op.due) whatever the server's
// state. A request is timed from its due time when it had to wait for a
// connection, so a stall counts against every request it delays; when a
// worker was idle and slept until the due time, the request is timed from
// its actual send, and the timer's overshoot is reported as generator
// lateness instead.
func (d *loadgen) openLoop(ops []*op) []result {
	out := make([]result, len(ops))
	var next atomic.Int64
	start := time.Now().Add(5 * time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < d.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				r := &out[i]
				r.op = ops[i]
				due := start.Add(r.op.due)
				t0 := due
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
					t0 = time.Now()
					r.late = t0.Sub(due)
				} else {
					r.backlog = -wait
				}
				r.answers, r.err = d.do(r.op)
				end := time.Now()
				r.lat, r.start, r.done = end.Sub(t0), t0.Sub(start), end.Sub(start)
			}
		}()
	}
	wg.Wait()
	return out
}

// closedLoop runs `workers` clients that each send the next op from src as
// soon as their previous one returns, until src is exhausted or the
// duration has passed (0 = no limit). Requests are timed from their send.
func (d *loadgen) closedLoop(src func() (*op, error), dur time.Duration) ([]result, error) {
	var (
		mu     sync.Mutex
		out    []result
		srcErr error
		wg     sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < d.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for dur == 0 || time.Since(start) < dur {
				mu.Lock()
				o, err := src()
				if err != nil && srcErr == nil {
					srcErr = err
				}
				mu.Unlock()
				if o == nil {
					return
				}
				t0 := time.Now()
				answers, err := d.do(o)
				end := time.Now()
				mu.Lock()
				out = append(out, result{op: o, answers: answers, err: err,
					lat: end.Sub(t0), start: t0.Sub(start), done: end.Sub(start)})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out, srcErr
}

// listSource feeds a fixed op list to closedLoop.
func listSource(ops []*op) func() (*op, error) {
	return func() (*op, error) {
		if len(ops) == 0 {
			return nil, nil
		}
		o := ops[0]
		ops = ops[1:]
		return o, nil
	}
}

// do sends one op and decodes its answers. A timed-out mining result is a
// failure: the answer is not the one the service promises.
func (d *loadgen) do(o *op) ([]string, error) {
	resp, err := d.client.Post(d.base+o.path, "application/json", bytes.NewReader(o.body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s: reading response: %w", o.path, err)
	}
	return decode(o, resp.StatusCode, body)
}

// decode checks one response to op and extracts its answers.
func decode(o *op, status int, body []byte) ([]string, error) {
	if status/100 != 2 {
		return nil, fmt.Errorf("%s: HTTP %d: %.200s", o.path, status, body)
	}
	switch {
	case o.write > 0:
		var fr server.FactsResponse
		if err := json.Unmarshal(body, &fr); err != nil {
			return nil, fmt.Errorf("%s: %w", o.path, err)
		}
		if fr.Applied != o.write {
			return nil, fmt.Errorf("%s: %d of %d ops applied", o.path, fr.Applied, o.write)
		}
		return nil, nil
	case o.path == "/v1/mine":
		var mr server.MineResponse
		if err := json.Unmarshal(body, &mr); err != nil {
			return nil, fmt.Errorf("%s: %w", o.path, err)
		}
		if mr.Stats.TimedOut {
			return nil, fmt.Errorf("%s: timed_out", o.path)
		}
		return []string{wireAnswer(&mr)}, nil
	default:
		var br server.BatchMineResponse
		if err := json.Unmarshal(body, &br); err != nil {
			return nil, fmt.Errorf("%s: %w", o.path, err)
		}
		if len(br.Results) != len(o.keys) {
			return nil, fmt.Errorf("%s: %d results for %d sets", o.path, len(br.Results), len(o.keys))
		}
		answers := make([]string, len(br.Results))
		for i, it := range br.Results {
			switch {
			case it.Response == nil:
				return nil, fmt.Errorf("%s: set %d: HTTP %d: %s", o.path, i, it.Status, it.Error)
			case it.Response.Stats.TimedOut:
				return nil, fmt.Errorf("%s: set %d: timed_out", o.path, i)
			}
			answers[i] = wireAnswer(it.Response)
		}
		return answers, nil
	}
}

// An answer is "expression @ bits" of the solution and of each alternative
// in order, or "none" when no referring expression exists. Bits survive the
// JSON round trip exactly, so answers compare as strings.
func wireAnswer(r *server.MineResponse) string {
	if !r.Found || r.Solution == nil {
		return "none"
	}
	parts := []string{r.Solution.Expression + " @ " + fmtBits(r.Solution.Bits)}
	for _, a := range r.Alternatives {
		parts = append(parts, a.Expression+" @ "+fmtBits(a.Bits))
	}
	return strings.Join(parts, " | ")
}

func facadeAnswer(r *remi.Result) string {
	if !r.Found {
		return "none"
	}
	parts := []string{r.Expression + " @ " + fmtBits(r.Bits)}
	for _, a := range r.Alternatives {
		parts = append(parts, a.Expression+" @ "+fmtBits(a.Bits))
	}
	return strings.Join(parts, " | ")
}

func fmtBits(b float64) string { return strconv.FormatFloat(b, 'g', -1, 64) }
