// Command perfbench runs the performance microbenchmark suite
// (internal/bench.PerfSuite: batched vs reference forward passes, the
// long-context paged/reference cache sweep, the quantized-vs-float
// weight-streaming sweep, engine iteration at several batch sizes) and
// writes a machine-readable JSON report with per-benchmark ns/op,
// ns/token, and allocs/op plus the derived old-vs-new speedups and the
// host provenance (CPU model, core counts) the numbers depend on. The
// output path comes from the required -o flag; `make bench` pins the
// benchtime and writes BENCH_PR7.json at the repo root. Compare two
// reports with cmd/benchdiff.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"

	"specinfer/internal/bench"
)

// Result is the measurement for one benchmark.
type Result struct {
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_op"`
	NsPerToken  float64 `json:"ns_token"`
	AllocsPerOp uint64  `json:"allocs_op"`
	BytesPerOp  uint64  `json:"bytes_op"`
	// AcceptLen is the deterministic mean accepted speculated tokens per
	// verification, present only on verifier/accept-length scenarios.
	AcceptLen float64 `json:"accept_len,omitempty"`
	// TokensPerSec and P99Ms surface live-serving scenario metrics
	// reported via b.ReportMetric (the policy/bursty/* sweep): end-to-end
	// decode throughput and p99 request latency.
	TokensPerSec float64 `json:"tokens_per_sec,omitempty"`
	P99Ms        float64 `json:"p99_ms,omitempty"`
}

// Speedup compares a batched benchmark against its reference twin.
type Speedup struct {
	Batched        string  `json:"batched"`
	Reference      string  `json:"reference"`
	TimeSpeedup    float64 `json:"time_speedup"`
	AllocReduction float64 `json:"alloc_reduction"`
	// AcceptLenGain is batched's accept-len over the reference's, present
	// only when both report the metric (the traversal-vs-MSS pairs; the
	// PR 9 gate is gain >= 1.0 on every dataset).
	AcceptLenGain float64 `json:"accept_len_gain,omitempty"`
	// TokensPerSecGain and P99Ratio compare live-serving scenarios,
	// present only when both sides report the metrics. P99Ratio is the
	// new path's p99 over the reference's — <= 1 means equal-or-better
	// tail latency (the PR 10 gate: gain >= 1.2 with ratio <= 1 for
	// policy/bursty adaptive vs the best static shape).
	TokensPerSecGain float64 `json:"tokens_per_sec_gain,omitempty"`
	P99Ratio         float64 `json:"p99_ratio,omitempty"`
}

// deriveSpeedup computes the guarded comparison ratios between a
// new-path result and its reference twin. Every ratio divides by a
// measured quantity that is legitimately zero on unexercised paths
// (zero allocations, metric absent from the scenario), so each is
// emitted only when its denominator is positive — never NaN/Inf.
func deriveSpeedup(name, ref string, b, r Result) Speedup {
	sp := Speedup{Batched: name, Reference: ref}
	if b.NsPerOp > 0 {
		sp.TimeSpeedup = r.NsPerOp / b.NsPerOp
	}
	if b.AllocsPerOp > 0 {
		sp.AllocReduction = float64(r.AllocsPerOp) / float64(b.AllocsPerOp)
	}
	if b.AcceptLen > 0 && r.AcceptLen > 0 {
		sp.AcceptLenGain = b.AcceptLen / r.AcceptLen
	}
	if b.TokensPerSec > 0 && r.TokensPerSec > 0 {
		sp.TokensPerSecGain = b.TokensPerSec / r.TokensPerSec
	}
	if b.P99Ms > 0 && r.P99Ms > 0 {
		sp.P99Ratio = b.P99Ms / r.P99Ms
	}
	return sp
}

// pairing maps one comparison: the Speedups key and the reference
// benchmark it compares against.
type pairing struct{ key, ref string }

// pairingsFor returns the comparisons a benchmark name participates in
// as the new path, or nil when the name is a baseline. The policy
// bursty benchmarks get two comparisons each.
func pairingsFor(name string) []pairing {
	switch {
	case strings.HasSuffix(name, "/batched"):
		base := strings.TrimSuffix(name, "/batched")
		return []pairing{{base, base + "/ref"}}
	case strings.HasSuffix(name, "/parallel"):
		base := strings.TrimSuffix(name, "/parallel")
		return []pairing{{base, base + "/serial-ref"}}
	case strings.HasSuffix(name, "/paged"):
		base := strings.TrimSuffix(name, "/paged")
		return []pairing{{base + "/vs-ref", base + "/ref"}}
	case strings.HasSuffix(name, "/warm"):
		base := strings.TrimSuffix(name, "/warm")
		return []pairing{{base, base + "/cold"}}
	case strings.HasSuffix(name, "/quant"):
		base := strings.TrimSuffix(name, "/quant")
		return []pairing{{base, base + "/float"}}
	case strings.HasSuffix(name, "/affinity"):
		base := strings.TrimSuffix(name, "/affinity")
		return []pairing{{base, base + "/blind"}}
	case strings.HasSuffix(name, "/traversal"):
		base := strings.TrimSuffix(name, "/traversal")
		return []pairing{{base, base + "/mss"}}
	case strings.HasSuffix(name, "/adaptive"):
		base := strings.TrimSuffix(name, "/adaptive")
		return []pairing{
			{base + "/vs-deep", base + "/static-deep"},
			{base + "/vs-narrow", base + "/static-narrow"}}
	default:
		return nil
	}
}

// Report is the top-level JSON document.
type Report struct {
	Benchtime  string             `json:"benchtime"`
	GoVersion  string             `json:"go_version"`
	GOOS       string             `json:"goos"`
	GOARCH     string             `json:"goarch"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	NumCPU     int                `json:"num_cpu"`
	CPUModel   string             `json:"cpu_model,omitempty"`
	Benchmarks map[string]Result  `json:"benchmarks"`
	Speedups   map[string]Speedup `json:"speedups"`
}

// cpuModel reads the host CPU model name from /proc/cpuinfo (Linux).
// Returns "" elsewhere — numbers in a BENCH_*.json are only comparable
// against the same host, so the report records which one produced them.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			if _, v, ok := strings.Cut(name, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return ""
}

func main() {
	benchtime := flag.String("benchtime", "0.3s", "per-benchmark run time (test.benchtime syntax, e.g. 0.3s or 10x)")
	variant := flag.String("variant", "", "restrict the suite to one variant's scenarios (e.g. 'quantized' runs only the quantized-vs-float longctx sweep)")
	verifierSel := flag.String("verifier", "", "restrict the verifier/accept-length scenarios to one verifier (mss or traversal); other scenarios are dropped")
	policyOnly := flag.Bool("policy", false, "restrict the suite to the policy/ live-serving scenarios (bursty adaptive-vs-static sweep)")
	out := flag.String("o", "", "output JSON path (required)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the suite run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile (after the run) to this file")
	testing.Init()
	flag.Parse()
	if *out == "" {
		fmt.Fprintln(os.Stderr, "perfbench: -o <path> is required")
		os.Exit(2)
	}
	if err := flag.Set("test.benchtime", *benchtime); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		defer func() { _ = f.Close() }()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			_ = f.Close() // os.Exit skips the deferred close
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	rep := Report{
		Benchtime:  *benchtime,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Benchmarks: map[string]Result{},
		Speedups:   map[string]Speedup{},
	}
	suite := bench.PerfSuite()
	if *variant != "" {
		prefix, ok := map[string]string{"quantized": "forward/longctx-q/"}[*variant]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: no scenarios for variant %q\n", *variant)
			os.Exit(2)
		}
		var kept []bench.PerfBenchmark
		for _, pb := range suite {
			if strings.HasPrefix(pb.Name, prefix) {
				kept = append(kept, pb)
			}
		}
		suite = kept
	}
	if *policyOnly {
		var kept []bench.PerfBenchmark
		for _, pb := range suite {
			if strings.HasPrefix(pb.Name, "policy/") {
				kept = append(kept, pb)
			}
		}
		suite = kept
	}
	if *verifierSel != "" {
		if *verifierSel != "mss" && *verifierSel != "traversal" {
			fmt.Fprintf(os.Stderr, "perfbench: unknown verifier %q (want mss or traversal)\n", *verifierSel)
			os.Exit(2)
		}
		var kept []bench.PerfBenchmark
		for _, pb := range suite {
			if strings.HasPrefix(pb.Name, "verifier/accept-length/") && strings.HasSuffix(pb.Name, "/"+*verifierSel) {
				kept = append(kept, pb)
			}
		}
		suite = kept
	}
	for _, pb := range suite {
		r := testing.Benchmark(pb.Run)
		nsOp := float64(r.T.Nanoseconds()) / float64(r.N)
		res := Result{
			Iterations:   r.N,
			NsPerOp:      nsOp,
			NsPerToken:   nsOp / pb.TokensPerOp,
			AllocsPerOp:  uint64(r.AllocsPerOp()),
			BytesPerOp:   uint64(r.AllocedBytesPerOp()),
			AcceptLen:    r.Extra["accept-len"],
			TokensPerSec: r.Extra["tok/s"],
			P99Ms:        r.Extra["p99-ms"],
		}
		rep.Benchmarks[pb.Name] = res
		extra := ""
		if res.AcceptLen > 0 {
			extra = fmt.Sprintf("  %.4f accept-len", res.AcceptLen)
		}
		fmt.Printf("%-32s %10d ns/op  %10.0f ns/token  %7d allocs/op%s\n",
			pb.Name, int64(nsOp), nsOp/pb.TokensPerOp, r.AllocsPerOp(), extra)
	}

	// Pair every new-path benchmark with its baseline twin(s).
	for _, pb := range suite {
		b, okB := rep.Benchmarks[pb.Name]
		if !okB {
			continue
		}
		for _, p := range pairingsFor(pb.Name) {
			r, okR := rep.Benchmarks[p.ref]
			if !okR {
				continue
			}
			sp := deriveSpeedup(pb.Name, p.ref, b, r)
			rep.Speedups[p.key] = sp
			extra := ""
			if sp.TokensPerSecGain > 0 {
				extra = fmt.Sprintf(", %.2fx tok/s, %.2fx p99", sp.TokensPerSecGain, sp.P99Ratio)
			}
			fmt.Printf("%-40s %.2fx time, %.2fx allocs%s vs %s\n", p.key, sp.TimeSpeedup, sp.AllocReduction, extra, p.ref)
		}
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			_ = f.Close() // os.Exit skips the deferred close
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		}
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println("wrote", *out)
}
