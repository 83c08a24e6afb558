package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"specinfer/internal/workload"
)

// setupRuns is how many times a run starts the daemon to time set-up;
// setup_s is their median. The last start serves the load.
const setupRuns = 5

// loadResult is everything one run (traced or untraced) observed.
type loadResult struct {
	label     string
	setups    []time.Duration
	warm      []*sample
	steps     [3][]*sample
	closed    []*sample
	closedDur time.Duration
	peakRSSMB float64
	// hitsOpenLoop is the prefix-cache hit count after the first
	// round's open-loop steps, before its closed loop (whose request
	// count varies): both runs have sent the same requests by then.
	hitsOpenLoop  uint64
	prefixEnabled bool
	wrapped       bool
	oracleFails   int
	// errs are run-level failures (daemon exit status, stats reads).
	errs []string
}

// all returns every request the run sent, in phase order.
func (r *loadResult) all() []*sample {
	out := append([]*sample(nil), r.warm...)
	for _, st := range r.steps {
		out = append(out, st...)
	}
	return append(out, r.closed...)
}

func (r *loadResult) attempted() int { return len(r.all()) }

func (r *loadResult) failed() int {
	n := 0
	for _, s := range r.all() {
		if !s.ok() {
			n++
		}
	}
	return n
}

func (r *loadResult) correct() bool {
	return r.failed() == 0 && !r.wrapped && len(r.errs) == 0
}

// drive runs the phase schedule against a serving daemon at addr.
// hits reads the prefix-cache hit counter (nil when the cache is off).
func drive(ctx context.Context, addr string, reqs []workload.Request, p plan, hits func() (uint64, error)) *loadResult {
	r := &loadResult{}
	c := newClient(addr, p.conns)
	defer c.close()
	pl := &pool{reqs: reqs}

	// Unloaded: one client, one request at a time. On the shared-prefix
	// workload this also warms every group's prefix.
	r.warm = runSequential(ctx, c, pl, "unloaded", p.warm)
	// The open-loop steps and the closed loop take turns, round after
	// round, so that each metric samples the whole run instead of one
	// stretch of it: the host's speed drifts on a scale of seconds.
	for round := 0; round < rounds; round++ {
		for i, arr := range p.arrivals[round] {
			r.steps[i] = append(r.steps[i], runOpenLoop(ctx, c, pl, stepName(i), round, arr, p.conns)...)
		}
		if round == 0 && hits != nil {
			h, err := hits()
			if err != nil {
				r.errs = append(r.errs, err.Error())
			}
			r.hitsOpenLoop, r.prefixEnabled = h, true
		}
		ss, d := runClosedLoop(ctx, c, pl, "closed", round, p.closed/rounds, p.conns)
		r.closed = append(r.closed, ss...)
		r.closedDur += d
	}
	pl.mu.Lock()
	r.wrapped = pl.wrapped
	pl.mu.Unlock()
	return r
}

func stepName(i int) string { return fmt.Sprintf("step%d", i+1) }

// runUntraced measures the specinferd binary: set-up several times,
// then the load against the last instance.
func runUntraced(ctx context.Context, bin string, w workloadDef, reqs []workload.Request, p plan) (*loadResult, error) {
	var d *daemon
	var setups []time.Duration
	for i := 0; i < setupRuns; i++ {
		dd, took, err := startDaemon(bin, w.daemonArgs(), p.conns)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took)
		if i < setupRuns-1 {
			if err := dd.stop(); err != nil {
				return nil, fmt.Errorf("daemon stop after set-up: %w", err)
			}
			continue
		}
		d = dd
	}
	var hits func() (uint64, error)
	if w.prefixMB > 0 {
		hits = func() (uint64, error) {
			m, err := getMetricz(ctx, d.addr)
			if err != nil {
				return 0, err
			}
			if m.PrefixCache == nil {
				return 0, fmt.Errorf("/metricz has no prefix_cache block")
			}
			return m.PrefixCache.Hits, nil
		}
	}
	r := drive(ctx, d.addr, reqs, p, hits)
	r.label, r.setups = "untraced", setups
	rss, err := peakRSSMB(d.cmd.Process.Pid)
	if err != nil {
		r.errs = append(r.errs, "read daemon VmHWM: "+err.Error())
	}
	r.peakRSSMB = rss
	if err := d.stop(); err != nil {
		r.errs = append(r.errs, fmt.Sprintf("daemon did not drain cleanly: %v", err))
	}
	return r, nil
}

// heldOutSeed is kept out of tuning: a performance claim must also hold
// on it (README.md, "Seeds").
const heldOutSeed = 101

// provenance records what a result was measured on.
func provenance(seed uint64, daemonProcs int) map[string]any {
	prov := map[string]any{
		"seed":                seed,
		"held_out_seed":       heldOutSeed,
		"nproc":               runtime.NumCPU(),
		"daemon_gomaxprocs":   daemonProcs,
		"loadgen_gomaxprocs":  runtime.GOMAXPROCS(0),
		"go_version":          runtime.Version(),
		"cpu_model":           cpuModel(),
		"git_commit":          "unknown (not built in a git checkout)",
		"started_unix_second": time.Now().Unix(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				prov["git_commit"] = s.Value
			}
		}
	}
	return prov
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
