// Command livebench is the repository's end-to-end benchmark: it
// replays seeded open-loop traffic against a running specinferd and
// reports what a user of the daemon sees (TTFT, TPOT, latency, goodput,
// saturation throughput, set-up time, memory), checking every output
// against a greedy incremental decode of the same LLM. With -trace 1 it
// also builds the same daemon in process from the public constructors,
// wraps the models in timing decorators, and reports per-layer metrics.
// See README.md for the workloads and what each metric should move.
//
//	livebench -daemon <specinferd binary> -workload alpaca-chat -seed 1 -seconds 45 -trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"specinfer/internal/tensor"
)

func main() {
	var (
		bin     = flag.String("daemon", "", "path of the specinferd binary to benchmark")
		wlName  = flag.String("workload", "", "workload name (see README.md)")
		seed    = flag.Uint64("seed", 1, "workload seed: the same seed gives the same requests")
		seconds = flag.Int("seconds", 45, "measured load duration of one run")
		traceOn = flag.Int("trace", 0, "1 adds the traced in-process run and reports per-layer metrics")
		outDir  = flag.String("out", ".bench_build/livebench", "directory for result and span files")
	)
	flag.Parse()
	if err := run(*bin, *wlName, *seed, *seconds, *traceOn, *outDir); err != nil {
		fmt.Fprintln(os.Stderr, "livebench:", err)
		os.Exit(1)
	}
}

func run(bin, wlName string, seed uint64, seconds, traceOn int, outDir string) error {
	w, err := lookupWorkload(wlName)
	if err != nil {
		return err
	}
	if bin == "" {
		return fmt.Errorf("-daemon is required")
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1, got %d", seconds)
	}
	if traceOn != 0 && traceOn != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", traceOn)
	}
	plan := newPlan(w, seed, seconds)
	prov := provenance(seed, plan.conns)
	ctx := context.Background()

	reqs := w.requests(seed, plan.poolSize)
	res, err := runUntraced(ctx, bin, w, reqs, plan)
	if err != nil {
		return err
	}
	orc, err := newOracle(w)
	if err != nil {
		return err
	}
	res.check(orc, reqs)
	res.print(os.Stdout, w, plan)

	out := resultLine{Correct: res.correct(), Attempted: res.attempted(), Failed: res.failed()}
	files := map[string]any{"provenance": prov, "untraced": res.summary(w, plan)}
	if traceOn == 0 {
		out.Metrics = res.endToEnd(w, plan)
	} else {
		tr, err := runTraced(ctx, bin, w, reqs, plan)
		if err != nil {
			return err
		}
		tr.load.check(orc, reqs)
		tr.load.print(os.Stdout, w, plan)
		mismatch := compareOutputs(res, tr.load)
		fid := tr.fidelity(w, res)
		if mismatch > 0 {
			fmt.Printf("  run error: %d requests produced different outputs in the traced and untraced runs\n", mismatch)
		}
		if fid != "" {
			fmt.Println("  run error: " + fid)
		}
		tr.printOverhead(os.Stdout, w, plan, res)
		spanFile := filepath.Join(outDir, fmt.Sprintf("%s-seed%d.spans.jsonl", w.name, seed))
		if err := tr.writeSpans(spanFile); err != nil {
			return err
		}
		fmt.Printf("spans: %d written to %s\n", len(tr.spans), spanFile)
		out.Metrics = tr.perLayer(w, res, plan)
		fmt.Printf("per-layer metrics reported as 0, not measured (%s never calls that code): %v\n", w.name, notMeasured(w))
		out.Correct = out.Correct && tr.load.correct() && mismatch == 0 && fid == ""
		out.Attempted += tr.load.attempted()
		out.Failed += tr.load.failed() + mismatch
		files["traced"] = tr.load.summary(w, plan)
		files["per_layer"] = out.Metrics
		files["per_layer_not_measured"] = notMeasured(w)
		files["fidelity_error"] = fid
	}
	if err := writeJSONFile(filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d.json", w.name, seed, traceOn)), files); err != nil {
		return err
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func writeJSONFile(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// plan is the phase schedule of one run, derived from -seconds.
type plan struct {
	warm     int                        // requests in the unloaded single-client phase
	rates    [3]float64                 // open-loop step rates, req/s
	arrivals [rounds][3][]time.Duration // per round and step, offsets from its start
	closed   time.Duration              // closed-loop phase, over all rounds
	conns    int                        // concurrent connections (= nproc)
	poolSize int
}

// Shares of the measured time. The nominal (middle) step gets the most
// so its p90 has at least ten samples beyond it.
const (
	warmShare   = 0.05
	closedShare = 0.25
)

var stepShares = [3]float64{0.07, 0.55, 0.07}

// poolHeadroom is how many times today's closed-loop capacity the
// request pool covers. Building a request is cheap, and the oracle
// decodes only the requests that were sent.
const poolHeadroom = 20

// rounds is how many times the run cycles through the open-loop steps
// and the closed loop.
const rounds = 4

func newPlan(w workloadDef, seed uint64, seconds int) plan {
	s := time.Duration(seconds) * time.Second
	// rates[2] is ~75% of the closed-loop capacity with nproc clients;
	// one client gets about half of it.
	capacity := w.rates[2] / 0.75
	p := plan{
		// A count, not a duration, so that the traced and untraced runs
		// send the same requests before the open-loop steps.
		warm:   max(10, int(0.5*capacity*warmShare*s.Seconds())),
		closed: time.Duration(closedShare * float64(s)),
		conns:  runtime.NumCPU(),
		rates:  w.rates,
	}
	total := 0
	rng := tensor.NewRNG(seed ^ 0x5eed0f5ced0a11)
	for i, r := range w.rates {
		n := int(r*stepShares[i]*float64(seconds)/rounds + 0.5)
		n = max(n, 1)
		for k := range p.arrivals {
			p.arrivals[k][i] = jitteredSchedule(rng, r, n)
		}
		total += rounds * n
	}
	// Running out of requests marks the run incorrect, so the pool
	// covers a closed loop far faster than today's.
	p.poolSize = total + p.warm + int(poolHeadroom*capacity*p.closed.Seconds()) + 64
	return p
}
