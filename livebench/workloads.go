package main

import (
	"fmt"
	"time"

	"specinfer/internal/bench"
	"specinfer/internal/model"
	"specinfer/internal/tensor"
	"specinfer/internal/workload"
)

// workloadDef is one benchmark workload: a daemon flag set plus a
// traffic mix. Rates and SLO limits are frozen constants so that two
// commits see the same offered load and the same pass/fail line.
type workloadDef struct {
	name string
	// The specinferd flags that differ from its defaults. Every workload
	// serves greedy decoding with the default tree (width 3, depth 8).
	variant  string // -variant; empty is the n-gram substrate
	replicas int    // -replicas
	prefixMB int64  // -prefix-cache-mb
	// traffic builds n requests from the seeded generator.
	traffic func(mk *workload.Markov, rng *tensor.RNG, n int) []workload.Request
	// rates are the open-loop steps in req/s, about 25/50/75% of the
	// closed-loop capacity with nproc clients measured on the reference
	// host (2-vCPU Intel Xeon; the `closed` row of a run's report
	// re-measures it). rates[1] is the nominal step the latency metrics
	// are read at. The steps stop short of 90%: the host's run-to-run CPU speed swings (10-20%) would
	// push a step that close to capacity in and out of saturation.
	rates [3]float64
	// ttftLimit and tpotLimit are the goodput SLO: 10x the unloaded
	// single-client p50 TTFT and 3x its p50 TPOT (the `unloaded` row of
	// a run's report), measured on the reference host and frozen here.
	ttftLimit, tpotLimit time.Duration
}

// Traffic shapes. On the random-weight transformer pair speculation is
// wasted (accept length about 0.02), so every output token of the fleet
// workload costs a whole tree step (~15 ms on the reference host): 4
// new tokens keep its requests prefill- and TTFT-bound, and keep the
// oracle's cold re-decode of every prompt short. The 128-token group
// prefix is two prefix-cache pages.
const (
	alpacaPromptLen = 16
	alpacaNewTokens = 128 // the paper's generation length
	fleetPrefixLen  = 128
	fleetSuffixLen  = 16
	fleetGroups     = 5 // coprime with the 2 replicas
	fleetNewTokens  = 4
	// fleetPrefixSeed draws the shared-prefix workload's group prefixes:
	// a deployment's fixed set of system prompts. The run seed varies the
	// suffixes and arrivals only. Drawing the prefixes from it too would
	// redraw which replica each group hashes to (five groups over two
	// replicas split anywhere from 3:2 to 5:0 across seeds), and that
	// draw, not the code, would decide a run's latency.
	fleetPrefixSeed = 1
)

var workloads = []workloadDef{
	{
		name: "alpaca-chat",
		traffic: func(mk *workload.Markov, rng *tensor.RNG, n int) []workload.Request {
			return mk.Trace(rng, n, alpacaPromptLen, alpacaNewTokens)
		},
		replicas:  1,
		rates:     [3]float64{4, 8, 12},
		ttftLimit: 40 * time.Millisecond,
		tpotLimit: 2200 * time.Microsecond,
	},
	{
		name:    "shared-prefix-fleet",
		variant: "paged", replicas: 2, prefixMB: 8,
		traffic: func(mk *workload.Markov, rng *tensor.RNG, n int) []workload.Request {
			reqs := mk.GroupedSharedPrefixTrace(rng, n, fleetGroups, fleetPrefixLen, fleetSuffixLen, fleetNewTokens, 1)
			fixed := mk.GroupedSharedPrefixTrace(tensor.NewRNG(fleetPrefixSeed), fleetGroups, fleetGroups, fleetPrefixLen, 1, 1, 1)
			prefix := map[int][]int{}
			for _, r := range fixed {
				prefix[r.Group] = r.Prompt[:fleetPrefixLen]
			}
			for _, r := range reqs {
				copy(r.Prompt, prefix[r.Group])
			}
			return reqs
		},
		rates:     [3]float64{7.5, 15, 22.5},
		ttftLimit: 210 * time.Millisecond,
		tpotLimit: 30 * time.Millisecond,
	},
}

// transformer reports whether w serves the transformer pair: a
// -variant switches specinferd off the n-gram substrate.
func (w workloadDef) transformer() bool { return w.variant != "" }

// daemonArgs are w's specinferd flags beyond -addr.
func (w workloadDef) daemonArgs() []string {
	var args []string
	if w.variant != "" {
		args = append(args, "-variant", w.variant)
	}
	if w.replicas > 1 {
		args = append(args, "-replicas", fmt.Sprint(w.replicas))
	}
	if w.prefixMB > 0 {
		args = append(args, "-prefix-cache-mb", fmt.Sprint(w.prefixMB))
	}
	return args
}

func lookupWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// dataset is the prompt distribution every workload draws from (the
// daemon's default -dataset).
func dataset() workload.Dataset { return workload.DatasetByName("Alpaca") }

// models returns the LLM and SSM the daemon serves for w, the LLM
// resolved to the same execution variant, for the output oracle and
// the traced run.
func (w workloadDef) models() (llm, ssm model.Model, err error) {
	ds := dataset()
	if !w.transformer() {
		p := bench.Models(ds)
		return p.LLM, p.SSM, nil
	}
	p := bench.TransformerPair(ds)
	v, ok := model.Model(p.LLM).(model.Varianter)
	if !ok {
		return nil, nil, fmt.Errorf("model %s has no execution variants", p.LLM.Name())
	}
	llm, ok = v.Variant(w.variant)
	if !ok {
		return nil, nil, fmt.Errorf("model %s does not recognize variant %q", p.LLM.Name(), w.variant)
	}
	return llm, p.SSM, nil
}

// requests builds the run's request pool from the workload seed.
func (w workloadDef) requests(seed uint64, n int) []workload.Request {
	return w.traffic(workload.NewMarkov(dataset()), tensor.NewRNG(seed), n)
}
