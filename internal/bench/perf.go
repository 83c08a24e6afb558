package bench

// Performance microbenchmarks for PR 2's batched forward path and
// parallel engine loop. Unlike the table/figure drivers above, these
// measure wall-clock cost of the real transformer substrate — the paper's
// quantity of interest for tree-based verification is ns per verified
// token, so every driver reports ns/token alongside the standard ns/op
// and allocs/op.
//
// Each batched benchmark has a -ref twin that runs the pre-batching
// scalar path (transformer.Model.Reference) or the serial engine loop
// (Workers=1 + reference sessions), so one run of the suite yields the
// old-vs-new speedups directly. The drivers live here, not in a _test.go
// file, so bench_test.go and cmd/perfbench share them.

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"specinfer/internal/core"
	"specinfer/internal/model"
	"specinfer/internal/router"
	"specinfer/internal/sampling"
	"specinfer/internal/tensor"
	"specinfer/internal/transformer"
	"specinfer/internal/tree"
	"specinfer/internal/workload"
)

// PerfBenchmark is one microbenchmark of the perf suite.
type PerfBenchmark struct {
	Name string
	// TokensPerOp is how many tokens one benchmark op processes
	// (forward passes: tokens in the pass; engine: tokens committed).
	TokensPerOp float64
	Run         func(b *testing.B)
}

const (
	perfPromptLen = 32
	perfTreeDepth = 8
	perfGenLen    = 16
)

var (
	perfOnce sync.Once
	perfLLM  *transformer.Model
	perfSSM  *transformer.Model
	bwOnce   sync.Once
	bwLLM    *transformer.Model
)

func perfModels() (*transformer.Model, *transformer.Model) {
	perfOnce.Do(func() {
		perfLLM = transformer.New(transformer.Config{
			Name: "perf-LLM", Vocab: 256, Hidden: 64, Heads: 4, FFN: 160,
			Layers: 4, Seed: 61,
		})
		perfSSM = transformer.New(transformer.Config{
			Name: "perf-SSM", Vocab: 256, Hidden: 32, Heads: 4, FFN: 64,
			Layers: 2, Seed: 62,
		})
	})
	return perfLLM, perfSSM
}

// bwModel is the weight-streaming benchmark model for the quantized
// sweep. It is deliberately wider than perf-LLM (hidden 256, FFN 3072,
// vocab 4096, 2 wide heads): at this geometry the projection and LM-head
// matmuls are ~70% of even a c1024 decode step, so the scenario measures
// what quantization actually buys on weight streaming rather than being
// drowned by attention over the (still-float) KV cache — the regime the
// paper's serving workloads live in, where weight matrices dwarf any
// single request's KV footprint.
func bwModel() *transformer.Model {
	bwOnce.Do(func() {
		bwLLM = transformer.New(transformer.Config{
			Name: "perf-LLM-bw", Vocab: 4096, Hidden: 256, Heads: 2, FFN: 3072,
			Layers: 4, Seed: 63,
		})
	})
	return bwLLM
}

// bwSession opens a session on the bandwidth model: "float" is the paged
// batched path, "quant" the same path with block-quantized projection
// weights (the PR 7 tentpole). The two are NOT bit-identical — quant is
// tolerance-gated — so their twin speedup is a genuine accuracy/speed
// trade, unlike the bit-identical paged/ref pair.
func bwSession(kind string) model.Session {
	m := bwModel()
	switch kind {
	case "float":
		return m.NewSession()
	case "quant":
		return m.Quantized().NewSession()
	}
	panic("bench: unknown bandwidth session kind " + kind)
}

func perfPrompt(n int) []model.Token {
	rng := tensor.NewRNG(8080)
	out := make([]model.Token, n)
	for i := range out {
		out[i] = rng.Intn(256)
	}
	return out
}

// perfTree builds a width-w speculation tree: w branches from the root,
// each extended to perfTreeDepth tokens (1 + w*perfTreeDepth nodes),
// mirroring §4.2's expansion-based construction.
func perfTree(w int) *tree.Tree {
	rng := tensor.NewRNG(9090 + uint64(w))
	tr := tree.New(rng.Intn(256))
	for b := 0; b < w; b++ {
		u := tr.Root()
		for d := 0; d < perfTreeDepth; d++ {
			tok := rng.Intn(256)
			if c := tr.ChildWithToken(u, tok); c != -1 {
				u = c
				continue
			}
			u = tr.AddChild(u, tok, 1, 0)
		}
	}
	return tr
}

// perfSession opens an LLM session on one of the two bit-identical
// paths: the batched forward over the paged KV arena (the default), or
// the scalar Reference() oracle over its own slice cache.
func perfSession(reference bool) model.Session {
	llm, _ := perfModels()
	if reference {
		return llm.Reference().NewSession()
	}
	return llm.NewSession()
}

func prefillBench(reference bool) func(*testing.B) {
	return func(b *testing.B) {
		llm, _ := perfModels()
		m := model.Model(llm)
		if reference {
			m = llm.Reference()
		}
		prompt := perfPrompt(perfPromptLen)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.NewSession().Prefill(prompt)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/perfPromptLen, "ns/token")
	}
}

func decodeBench(reference bool) func(*testing.B) {
	return func(b *testing.B) {
		prompt := perfPrompt(perfPromptLen)
		rng := tensor.NewRNG(7)
		s := perfSession(reference)
		s.Prefill(prompt)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Re-prefill periodically so the KV context — and with it the
			// per-decode attention cost — stays bounded as b.N grows.
			if s.Len() >= perfPromptLen+64 {
				b.StopTimer()
				s = perfSession(reference)
				s.Prefill(prompt)
				b.StartTimer()
			}
			s.Decode(rng.Intn(256))
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/token")
	}
}

func treeBench(width int, reference bool) func(*testing.B) {
	return func(b *testing.B) {
		s := perfSession(reference)
		s.Prefill(perfPrompt(perfPromptLen))
		tr := perfTree(width)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// DecodeTree without Accept: the cache never grows, so every
			// iteration verifies the same tree at the same context length.
			s.DecodeTree(tr)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(tr.Len()), "ns/token")
	}
}

// longCtxBench measures decode-shaped work against a large committed
// context — where the KV-cache read pattern dominates and the paged
// head-major layout pays off. The session prefills ctxLen tokens once
// (untimed), then every op verifies the same width-w tree without
// accepting, so the context length is pinned for the whole measurement:
// w=1 is an 8-token chain (incremental-decode shape), larger widths are
// tree verification.
func longCtxBench(ctxLen, width int, reference bool) func(*testing.B) {
	return func(b *testing.B) {
		s := perfSession(reference)
		// Build the committed context the way a served request does: half
		// arrives as the prompt in one prefill, half is generated token by
		// token. Growing the cache one forward at a time is what scatters a
		// per-position slice cache across the heap (a layer's consecutive
		// rows end up ~2KB apart instead of adjacent); the paged arena
		// packs rows identically no matter how they arrived, which is the
		// effect these benchmarks exist to measure.
		s.Prefill(perfPrompt(ctxLen / 2))
		rng := tensor.NewRNG(4321)
		for s.Len() < ctxLen {
			s.Decode(rng.Intn(256))
		}
		tr := perfTree(width)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.DecodeTree(tr)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(tr.Len()), "ns/token")
	}
}

// longCtxQuantBench is longCtxBench on the bandwidth model: same
// committed-context construction (prefill half, decode half), same
// pinned-context tree verification per op, with kind selecting the
// quantized or float weight path. The quant/float ratio is the PR 7
// acceptance gate (>= 1.5x on c1024/decode8).
func longCtxQuantBench(ctxLen, width int, kind string) func(*testing.B) {
	return func(b *testing.B) {
		s := bwSession(kind)
		s.Prefill(perfPrompt(ctxLen / 2))
		rng := tensor.NewRNG(4321)
		for s.Len() < ctxLen {
			s.Decode(rng.Intn(256))
		}
		tr := perfTree(width)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.DecodeTree(tr)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(tr.Len()), "ns/token")
	}
}

func engineBench(batch int, serialRef bool) func(*testing.B) {
	return func(b *testing.B) {
		llm, ssm := perfModels()
		var llmM, ssmM model.Model = llm, ssm
		workers := 0
		if serialRef {
			llmM, ssmM = llm.Reference(), ssm.Reference()
			workers = 1
		}
		rng := tensor.NewRNG(5150)
		reqs := make([]workload.Request, batch)
		for i := range reqs {
			p := make([]model.Token, 16)
			for j := range p {
				p[j] = rng.Intn(256)
			}
			reqs[i] = workload.Request{ID: i, Prompt: p, MaxNewTok: perfGenLen}
		}
		cfg := core.Config{
			Mode: core.TreeSpec, LLM: llmM, SSMs: []model.Model{ssmM},
			Sample: sampling.GreedyConfig(), Seed: 17,
			MaxBatch: batch, Workers: workers,
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e, err := core.NewEngine(cfg)
			if err != nil {
				b.Fatal(err)
			}
			e.Run(reqs)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(batch*perfGenLen), "ns/token")
	}
}

// prefixBench measures time-to-first-token under shared-prefix traffic:
// `batch` requests whose prompts open with the same prefixLen-token
// prefix and diverge into 16-token suffixes, each generating exactly ONE
// token — so an op's cost is dominated by prefill, the TTFT component.
// warm enables the cross-request prefix cache (the engine is rebuilt
// every op, so all sharing happens inside the measured batch: the first
// prefill is cold and seeds the cache, the rest adopt the shared pages
// and compute only their suffixes); cold runs the identical trace with
// the cache disabled. warm-vs-cold is the tentpole speedup.
func prefixBench(batch, prefixLen int, warm bool) func(*testing.B) {
	return func(b *testing.B) {
		llm, ssm := perfModels()
		rng := tensor.NewRNG(6060)
		prefix := make([]model.Token, prefixLen)
		for i := range prefix {
			prefix[i] = rng.Intn(256)
		}
		reqs := make([]workload.Request, batch)
		for i := range reqs {
			p := append([]model.Token(nil), prefix...)
			for j := 0; j < 16; j++ {
				p = append(p, rng.Intn(256))
			}
			reqs[i] = workload.Request{ID: i, Prompt: p, MaxNewTok: 1}
		}
		cfg := core.Config{
			Mode: core.TreeSpec, LLM: llm, SSMs: []model.Model{ssm},
			Sample: sampling.GreedyConfig(), Seed: 17, MaxBatch: batch,
		}
		if warm {
			cfg.PrefixCacheBytes = 256 << 20
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e, err := core.NewEngine(cfg)
			if err != nil {
				b.Fatal(err)
			}
			e.Run(reqs)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(batch), "ns/token")
	}
}

// RouterTraceConfig parameterizes one fleet run over a shared-prefix
// trace: the PR 8 router scenario and its measured-vs-sim cross-check
// share it.
type RouterTraceConfig struct {
	Replicas  int
	Groups    int
	Requests  int
	PrefixLen int
	SuffixLen int
	MaxNew    int
	Policy    router.Policy
}

// routerTraceRequests builds the grouped shared-prefix trace for a
// fleet run. Alpaca's vocabulary (192) fits inside the perf models'
// (256), so the Markov trace drives the transformer substrate directly.
func routerTraceRequests(cfg RouterTraceConfig) []workload.Request {
	m := workload.NewMarkov(workload.DatasetByName("Alpaca"))
	rng := tensor.NewRNG(7070)
	return m.GroupedSharedPrefixTrace(rng, cfg.Requests, cfg.Groups,
		cfg.PrefixLen, cfg.SuffixLen, cfg.MaxNew, 1)
}

// RunRouterTrace serves one shared-prefix trace through a fresh
// Replicas-wide fleet under the given placement policy and blocks until
// every request completes: engines are built per call (per-replica
// prefix caches start cold, so all sharing happens inside the measured
// trace), the fleet is started, the requests are submitted in trace
// order, and the fleet is drained. fail reports a fatal condition
// (b.Fatal / t.Fatal).
func RunRouterTrace(cfg RouterTraceConfig, reqs []workload.Request, fail func(...any)) {
	llm, ssm := perfModels()
	engs := make([]*core.Engine, cfg.Replicas)
	for i := range engs {
		eng, err := core.NewEngine(core.Config{
			Mode: core.TreeSpec, LLM: llm, SSMs: []model.Model{ssm},
			Sample: sampling.GreedyConfig(), Seed: 17,
			MaxBatch: 8, QueueDepth: len(reqs),
			PrefixCacheBytes: 256 << 20,
		})
		if err != nil {
			fail(err)
			return
		}
		engs[i] = eng
	}
	rt, err := router.New(router.Config{Replicas: engs, Policy: cfg.Policy})
	if err != nil {
		fail(err)
		return
	}
	//lint:ignore ctxflow benchmark driver owns the fleet lifecycle; the root context is its drain switch
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- rt.Run(ctx) }()
	for spins := 0; rt.FleetStats().Live < cfg.Replicas; spins++ {
		if spins > 50000 {
			fail("fleet never came up")
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
	results := make([]<-chan core.Result, 0, len(reqs))
	for _, req := range reqs {
		_, res, err := rt.Submit(ctx, req)
		if err != nil {
			fail(err)
			return
		}
		results = append(results, res)
	}
	for _, res := range results {
		if out := <-res; out.Err != nil {
			fail(out.Err)
			return
		}
	}
	cancel()
	if err := <-done; err != nil {
		fail(err)
	}
}

// routerBench measures fleet serving under shared-prefix traffic — the
// PR 8 tentpole scenario. Each op builds a fresh 4-replica fleet (cold
// per-replica prefix caches) and serves the full grouped trace through
// it. Under prefix-affinity routing a group's requests all land on one
// replica, so each group pays one cold prefill and the rest adopt the
// warm prefix pages; hash-blind round-robin spreads every group across
// all replicas, so nearly every request prefills cold. MaxNew 1 makes
// the op TTFT-shaped (prefill-dominated); MaxNew 16 makes it aggregate
// throughput. The affinity/blind ratio on the ttft pair is the
// acceptance gate (>= 1.5x).
func routerBench(cfg RouterTraceConfig) func(*testing.B) {
	return func(b *testing.B) {
		reqs := routerTraceRequests(cfg)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			RunRouterTrace(cfg, reqs, b.Fatal)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(reqs)), "ns/token")
	}
}

// PerfSuite returns the full microbenchmark suite: batched vs reference
// forward passes (prefill, decode, tree verification at widths 1–5), the
// long-context cache-layout sweep (committed context 128/512/1024 on the
// paged and reference variants), the quantized-vs-float weight
// streaming sweep on the wide bandwidth model, and the engine iteration
// loop at batch sizes 1–16, plus the serial pre-batching engine baseline
// at batch 8.
func PerfSuite() []PerfBenchmark {
	var out []PerfBenchmark
	add := func(name string, tokens float64, fn func(*testing.B)) {
		out = append(out, PerfBenchmark{Name: name, TokensPerOp: tokens, Run: fn})
	}
	add("forward/prefill32/batched", perfPromptLen, prefillBench(false))
	add("forward/prefill32/ref", perfPromptLen, prefillBench(true))
	add("forward/decode/batched", 1, decodeBench(false))
	add("forward/decode/ref", 1, decodeBench(true))
	for w := 1; w <= 5; w++ {
		n := float64(perfTree(w).Len())
		add(perfTreeName(w, false), n, treeBench(w, false))
		add(perfTreeName(w, true), n, treeBench(w, true))
	}
	// Long-context sweep: the PR 3 cache-layout benchmarks. Every point
	// runs on both bit-identical variants so the report derives the
	// paged-vs-ref speedup.
	kinds := []struct {
		name      string
		reference bool
	}{{"paged", false}, {"ref", true}}
	chain := float64(perfTree(1).Len())
	for _, c := range []int{128, 512, 1024} {
		for _, k := range kinds {
			add(fmt.Sprintf("forward/longctx/c%d/decode8/%s", c, k.name), chain,
				longCtxBench(c, 1, k.reference))
		}
	}
	w4 := float64(perfTree(4).Len())
	for _, k := range kinds {
		add("forward/longctx/c1024/tree-w4/"+k.name, w4, longCtxBench(1024, 4, k.reference))
	}
	// PR 7 tentpole scenario: quantized vs float weight streaming on the
	// wide bandwidth model at long context (gate: quant >= 1.5x float on
	// c1024). Decode-chain shape, same construction as the longctx sweep.
	for _, c := range []int{256, 1024} {
		for _, kind := range []string{"quant", "float"} {
			add(fmt.Sprintf("forward/longctx-q/c%d/decode8/%s", c, kind), chain,
				longCtxQuantBench(c, 1, kind))
		}
	}
	for _, bs := range []int{1, 4, 8, 16} {
		add(perfEngineName(bs, false), float64(bs*perfGenLen), engineBench(bs, false))
	}
	add(perfEngineName(8, true), float64(8*perfGenLen), engineBench(8, true))
	// PR 5 tentpole scenario: TTFT under shared-prefix traffic, prefix
	// cache on vs off (acceptance gate: warm >= 3x cold).
	add("engine/prefix/shared512x16/warm", 16, prefixBench(16, 512, true))
	add("engine/prefix/shared512x16/cold", 16, prefixBench(16, 512, false))
	// PR 8 tentpole scenario: 4-replica fleet under grouped shared-prefix
	// traffic, prefix-affinity vs hash-blind round-robin placement
	// (acceptance gate: affinity >= 1.5x on the ttft pair). The group
	// count is coprime with the replica count: with trace-order
	// round-robin submission, a group count divisible by the replica
	// count would accidentally pin each group to one replica and hide
	// the policies' difference (see TestPredictShardingCounts).
	for _, s := range []struct {
		name   string
		cfg    RouterTraceConfig
		tokens float64
	}{
		{"router/shared-prefix/r4/ttft/affinity",
			RouterTraceConfig{Replicas: 4, Groups: 7, Requests: 28, PrefixLen: 384, SuffixLen: 16, MaxNew: 1, Policy: router.PrefixAffinity}, 28},
		{"router/shared-prefix/r4/ttft/blind",
			RouterTraceConfig{Replicas: 4, Groups: 7, Requests: 28, PrefixLen: 384, SuffixLen: 16, MaxNew: 1, Policy: router.RoundRobin}, 28},
		{"router/shared-prefix/r4/tput/affinity",
			RouterTraceConfig{Replicas: 4, Groups: 7, Requests: 28, PrefixLen: 384, SuffixLen: 16, MaxNew: 16, Policy: router.PrefixAffinity}, 448},
		{"router/shared-prefix/r4/tput/blind",
			RouterTraceConfig{Replicas: 4, Groups: 7, Requests: 28, PrefixLen: 384, SuffixLen: 16, MaxNew: 16, Policy: router.RoundRobin}, 448},
	} {
		add(s.name, s.tokens, routerBench(s.cfg))
	}
	// PR 9 tentpole scenario: mean accepted speculated tokens per
	// verification, traversal vs MSS on identical instances (gate:
	// traversal's accept-len >= MSS's on every Table-1 dataset).
	out = append(out, AcceptLenSuite()...)
	// PR 10 tentpole scenario: adaptive per-iteration speculation policy
	// vs the best static tree shape on a bursty arrival trace, scored on
	// the A10 co-simulation clock (gate: adaptive >= 1.2x tokens/sec at
	// equal-or-better p99 vs BOTH statics). 5376 = 3 rounds x (48 burst +
	// 8 trickle) requests x 32 new tokens.
	for _, shape := range []string{"adaptive", "static-deep", "static-narrow"} {
		add("policy/bursty/"+shape, 5376, policyBurstyBench(shape))
	}
	return out
}

func perfTreeName(w int, reference bool) string {
	s := "forward/tree/w" + string(rune('0'+w)) + "/batched"
	if reference {
		s = "forward/tree/w" + string(rune('0'+w)) + "/ref"
	}
	return s
}

func perfEngineName(bs int, serialRef bool) string {
	names := map[int]string{1: "bs1", 4: "bs4", 8: "bs8", 16: "bs16"}
	if serialRef {
		return "engine/iter/" + names[bs] + "/serial-ref"
	}
	return "engine/iter/" + names[bs] + "/parallel"
}
