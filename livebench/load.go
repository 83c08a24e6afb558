package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"specinfer/internal/tensor"
	"specinfer/internal/workload"
)

// sample is the client-side record of one request sent to the daemon.
type sample struct {
	idx   int // index into the run's request pool
	phase string
	round int // the round of the run's interleaved phases
	// due is when the schedule wanted the request sent; sent is when a
	// connection became free and it actually went out. TTFT and latency
	// are measured from due, so a stall is charged to every request it
	// delays, not just the one it hits.
	due, sent    time.Time
	first, last  time.Time // first and last NDJSON token chunk
	done         time.Time // terminal "done" line
	tokens       []int     // concatenated streamed tokens
	chunks       int
	status       int
	err          string // transport, protocol or server-side error
	id           int    // server-assigned request ID
	serverLatMs  float64
	queueDelayMs float64
}

// ok reports whether the request completed with a 200 and a clean
// result; the oracle check is applied separately.
func (s *sample) ok() bool { return s.status == http.StatusOK && s.err == "" }

func (s *sample) ttft() time.Duration    { return s.first.Sub(s.due) }
func (s *sample) latency() time.Duration { return s.done.Sub(s.due) }

// tpot is the mean time per output token after the first, or false for
// single-token outputs.
func (s *sample) tpot() (time.Duration, bool) {
	if len(s.tokens) < 2 {
		return 0, false
	}
	return s.last.Sub(s.first) / time.Duration(len(s.tokens)-1), true
}

// client sends generate requests over at most conns concurrent
// connections.
type client struct {
	base string
	http *http.Client
}

func newClient(addr string, conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{base: "http://" + addr, http: &http.Client{Transport: tr}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

type generateBody struct {
	Prompt       []int `json:"prompt"`
	MaxNewTokens int   `json:"max_new_tokens"`
	Stream       bool  `json:"stream"`
}

type streamLine struct {
	Tokens []int `json:"tokens"`
	Done   bool  `json:"done"`
	Result *struct {
		ID           int     `json:"id"`
		Tokens       []int   `json:"tokens"`
		QueueDelayMs float64 `json:"queue_delay_ms"`
		LatencyMs    float64 `json:"latency_ms"`
		Error        string  `json:"error"`
	} `json:"result"`
}

// generate sends one streaming request and fills s with its timings and
// output. s.due must be set by the caller.
func (c *client) generate(ctx context.Context, req workload.Request, s *sample) {
	body, err := json.Marshal(generateBody{Prompt: req.Prompt, MaxNewTokens: req.MaxNewTok, Stream: true})
	if err != nil {
		s.err = err.Error()
		return
	}
	s.sent = time.Now()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/generate", bytes.NewReader(body))
	if err != nil {
		s.err = err.Error()
		return
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(hreq)
	if err != nil {
		s.err = err.Error()
		return
	}
	defer func() { _ = resp.Body.Close() }() // read-only
	s.status = resp.StatusCode
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		s.err = fmt.Sprintf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
		return
	}
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadBytes('\n')
		now := time.Now()
		if len(bytes.TrimSpace(line)) > 0 {
			var sl streamLine
			if jerr := json.Unmarshal(line, &sl); jerr != nil {
				s.err = "malformed NDJSON line: " + jerr.Error()
				return
			}
			if len(sl.Tokens) > 0 {
				if s.chunks == 0 {
					s.first = now
				}
				s.last = now
				s.chunks++
				s.tokens = append(s.tokens, sl.Tokens...)
			}
			if sl.Done {
				s.done = now
				if sl.Result == nil {
					s.err = "done line without result"
					return
				}
				r := sl.Result
				s.id, s.serverLatMs, s.queueDelayMs = r.ID, r.LatencyMs, r.QueueDelayMs
				switch {
				case r.Error != "":
					s.err = "result error: " + r.Error
				case !equalInts(r.Tokens, s.tokens):
					s.err = "streamed tokens differ from the final result"
				case s.chunks == 0:
					s.err = "no token chunks before done"
				}
				return
			}
		}
		if err != nil {
			s.err = "stream ended before done line: " + err.Error()
			return
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// pool hands out requests in order; every phase of a run draws from
// the same sequence so the traced and untraced runs send identical
// traffic.
type pool struct {
	mu   sync.Mutex
	reqs []workload.Request
	next int
	// wrapped is set once the sequence ran out and restarted: repeated
	// prompts would hit caches the workload means to miss, so the run
	// is reported incorrect.
	wrapped bool
}

func (p *pool) take() (int, workload.Request) {
	p.mu.Lock()
	defer p.mu.Unlock()
	i := p.next % len(p.reqs)
	p.next++
	if p.next > len(p.reqs) {
		p.wrapped = true
	}
	return i, p.reqs[i]
}

// jitteredSchedule returns n arrival offsets at rate req/s: one
// arrival in each 1/rate slot, at a seeded uniform position within it.
// Evenly spaced arrivals resonate with the service time (a few percent
// of host speed decides whether consecutive requests overlap at all);
// Poisson arrivals make the step's tail latency depend mostly on how
// bursty the seed's draw happened to be. One arrival per slot keeps
// the overlap probability smooth in host speed and the burstiness the
// same for every seed.
func jitteredSchedule(rng *tensor.RNG, rate float64, n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration((float64(i) + rng.Float64()) / rate * float64(time.Second))
	}
	return out
}

// runOpenLoop sends requests at the given arrival offsets over conns
// connections. A request due while every connection is busy waits for
// the next free one; it stays timed from its due time. Returns once
// every request has finished.
func runOpenLoop(ctx context.Context, c *client, p *pool, phase string, round int, arrivals []time.Duration, conns int) []*sample {
	type job struct {
		req workload.Request
		s   *sample
	}
	jobs := make(chan job)
	var wg sync.WaitGroup
	wg.Add(conns)
	for w := 0; w < conns; w++ {
		go func() {
			defer wg.Done()
			for j := range jobs {
				c.generate(ctx, j.req, j.s)
			}
		}()
	}
	out := make([]*sample, 0, len(arrivals))
	start := time.Now()
	for _, off := range arrivals {
		due := start.Add(off)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		idx, req := p.take()
		s := &sample{idx: idx, phase: phase, round: round, due: due}
		out = append(out, s)
		jobs <- job{req, s}
	}
	close(jobs)
	wg.Wait()
	return out
}

// runSequential sends n requests from one client, each as soon as the
// previous one completes: the unloaded baseline.
func runSequential(ctx context.Context, c *client, p *pool, phase string, n int) []*sample {
	out := make([]*sample, n)
	for i := range out {
		idx, req := p.take()
		out[i] = &sample{idx: idx, phase: phase, due: time.Now()}
		c.generate(ctx, req, out[i])
	}
	return out
}

// runClosedLoop runs conns clients, each sending its next request as
// soon as the previous one completes, until d has elapsed. Requests are
// due when their client sends them.
func runClosedLoop(ctx context.Context, c *client, p *pool, phase string, round int, d time.Duration, conns int) ([]*sample, time.Duration) {
	var mu sync.Mutex
	var out []*sample
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	wg.Add(conns)
	for w := 0; w < conns; w++ {
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				idx, req := p.take()
				s := &sample{idx: idx, phase: phase, round: round, due: time.Now()}
				c.generate(ctx, req, s)
				mu.Lock()
				out = append(out, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}
