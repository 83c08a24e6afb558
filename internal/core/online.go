package core

import (
	"math"
	"sort"

	"specinfer/internal/workload"
)

// TimedRequest is a request with an arrival time, for online serving.
type TimedRequest struct {
	workload.Request
	// Arrival is the request's arrival time in seconds since the start of
	// the simulation.
	Arrival float64
}

// OnlineResult extends RequestResult with queueing/service timing.
type OnlineResult struct {
	RequestResult
	Arrival float64 // when the request arrived
	Start   float64 // when it was admitted to a batching slot
	Finish  float64 // when its last token was committed
}

// QueueDelay is the time the request waited for a slot.
func (r OnlineResult) QueueDelay() float64 { return r.Start - r.Arrival }

// Latency is the end-to-end request latency (arrival to completion).
func (r OnlineResult) Latency() float64 { return r.Finish - r.Arrival }

// IterationPricer converts one iteration's work into simulated seconds.
// cluster.Deployment.IterationPricer provides the standard implementation;
// the indirection keeps core free of hardware-model dependencies.
type IterationPricer func(IterationRecord) float64

// RunOnline serves a trace whose requests arrive over time, co-simulating
// the serving loop with the hardware clock: each engine iteration advances
// the clock by its priced duration, and pending requests are admitted as
// soon as they have arrived AND a continuous-batching slot is free — the
// iteration-level scheduling of Orca (§5.1) under a real arrival process
// rather than an all-at-once backlog.
//
// Results are returned in input order.
func (e *Engine) RunOnline(reqs []TimedRequest, pricer IterationPricer) ([]OnlineResult, []IterationRecord) {
	if pricer == nil {
		panic("core: RunOnline requires an iteration pricer")
	}
	src := &traceSource{e: e, reqs: reqs, pricer: pricer, results: make([]OnlineResult, len(reqs))}
	for i, r := range reqs {
		src.results[i] = OnlineResult{Arrival: r.Arrival}
	}
	// Pending queue in arrival order (stable for ties).
	src.pending = make([]int, len(reqs))
	for i := range src.pending {
		src.pending[i] = i
	}
	sort.SliceStable(src.pending, func(a, b int) bool {
		return reqs[src.pending[a]].Arrival < reqs[src.pending[b]].Arrival
	})
	e.schedule(src)
	return src.results, src.iters
}

// traceSource is the arrival source of RunOnline: a fixed trace replayed
// against a simulated clock that each iteration advances by its priced
// duration. It never reads Config.Clock, so its results are a pure
// function of the trace and the configuration.
type traceSource struct {
	e       *Engine
	reqs    []TimedRequest
	pricer  IterationPricer
	pending []int   // indices into reqs not yet admitted, by arrival
	clock   float64 // simulated seconds
	results []OnlineResult
	iters   []IterationRecord
}

func (t *traceSource) admit(active []*reqState) []*reqState {
	if len(active) == 0 && len(t.pending) > 0 {
		// Idle until the next arrival.
		t.clock = max(t.clock, t.reqs[t.pending[0]].Arrival)
	}
	for len(active) < t.e.cfg.MaxBatch && len(t.pending) > 0 &&
		t.reqs[t.pending[0]].Arrival <= t.clock {
		idx := t.pending[0]
		t.pending = t.pending[1:]
		st := t.e.admit(t.reqs[idx].Request)
		st.pos = idx
		t.results[idx].Start = t.clock
		active = append(active, st)
	}
	return active
}

func (t *traceSource) prune(active []*reqState) []*reqState { return active }

// backlog counts the pending arrivals at or before the clock (pending is
// sorted by arrival, so they form a prefix).
func (t *traceSource) backlog() int {
	return sort.Search(len(t.pending), func(i int) bool {
		return t.reqs[t.pending[i]].Arrival > t.clock
	})
}

func (t *traceSource) stepped(rec IterationRecord) {
	t.iters = append(t.iters, rec)
	t.clock += t.pricer(rec)
}

func (t *traceSource) retire(st *reqState) {
	t.results[st.pos].RequestResult = st.res
	t.results[st.pos].Finish = t.clock
	t.e.release(st)
}

func (t *traceSource) settle([]*reqState) {}

// PoissonArrivals draws n arrival times from a Poisson process with the
// given mean rate (requests per second), returning them in ascending
// order. It lives here rather than in workload to keep the arrival-time
// concept next to its consumer.
func PoissonArrivals(rng interface{ Float64() float64 }, n int, rate float64) []float64 {
	if rate <= 0 {
		panic("core: arrival rate must be positive")
	}
	out := make([]float64, n)
	t := 0.0
	for i := range out {
		// Exponential inter-arrival via inverse CDF.
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		t += -math.Log(u) / rate
		out[i] = t
	}
	return out
}
