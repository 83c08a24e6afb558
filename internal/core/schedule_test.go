package core

import (
	"fmt"
	"reflect"
	"testing"

	"specinfer/internal/model"
	"specinfer/internal/policy"
	"specinfer/internal/sampling"
)

// TestRunMatchesRunOnlineAtTimeZero pins the scheduler fold: Run is the
// trace source with every arrival at t=0 and a zero-cost pricer, so its
// results and iteration records must equal RunOnline's on that trace.
// The trace is longer than MaxBatch + QueueHighWater, so the policy sees
// a backlog at or past high water while the batch is full. With every
// arrival at t=0 the mode must still follow occupancy alone (throughput
// exactly when the batch is full), because a non-empty backlog after
// admission implies a full batch: the backlog changes no Run decision.
func TestRunMatchesRunOnlineAtTimeZero(t *testing.T) {
	const maxBatch = 3
	pcfg := policy.Config{QueueHighWater: 2}
	llm, ssm, reqs := testModels(t, maxBatch+pcfg.QueueHighWater+4, 24)
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := Config{
				Mode: TreeSpec, LLM: llm, SSMs: []model.Model{ssm},
				Sample: sampling.StochasticConfig(), Seed: 5,
				MaxBatch: maxBatch, Workers: workers, Policy: &pcfg,
			}
			res, iters := run(t, cfg, reqs)

			e, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			online, onIters := e.RunOnline(timedTrace(reqs, make([]float64, len(reqs))), flatPricer(0))
			onRes := make([]RequestResult, len(online))
			for i, r := range online {
				onRes[i] = r.RequestResult
				if r.Start != 0 || r.Finish != 0 {
					t.Fatalf("request %d: zero pricer moved the clock (start %v, finish %v)", i, r.Start, r.Finish)
				}
			}
			if !reflect.DeepEqual(res, onRes) {
				t.Fatal("Run and RunOnline(t=0, zero pricer) results differ")
			}
			if !reflect.DeepEqual(iters, onIters) {
				t.Fatal("Run and RunOnline(t=0, zero pricer) iteration records differ")
			}
			full := 0
			for i, rec := range iters {
				want := policy.Latency.String()
				if rec.BatchSize == maxBatch {
					want = policy.Throughput.String()
					full++
				}
				if rec.PolicyMode != want {
					t.Fatalf("iter %d (batch %d): mode %q, want %q", i, rec.BatchSize, rec.PolicyMode, want)
				}
			}
			if full == 0 || full == len(iters) {
				t.Fatalf("trace never exercised both modes (%d of %d iterations full)", full, len(iters))
			}
		})
	}
}
