package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"time"

	"specinfer/internal/core"
	"specinfer/internal/kvcache"
	"specinfer/internal/model"
	"specinfer/internal/router"
	"specinfer/internal/sampling"
	"specinfer/internal/server"
	"specinfer/internal/tokenizer"
	"specinfer/internal/tree"
	"specinfer/internal/workload"
)

const (
	statsPeriod    = 20 * time.Millisecond
	directSubmits  = 64
	directRepeats  = 16
	prefillChunkSz = 128 // the transformer prefills in chunks of this many tokens
)

// tracedRun is the in-process build of the daemon, its load result,
// and what the decorators and the layers' counters recorded.
type tracedRun struct {
	load  *loadResult
	tr    *tracer
	spans []span
	// Counters read after the open-loop and closed-loop phases, before
	// the direct Submit calls.
	fleet       router.FleetStats
	single      core.ServeStats
	replicas    int
	prefix      kvcache.PrefixStats
	kvPeak      int64
	prefixPeak  int64
	submitUs    []float64
	directTimes directTimes
}

// engineConfig is the config specinferd builds from its defaults f and
// workload w's flags, over already-resolved (and decorated) models.
func engineConfig(w workloadDef, f daemonFlags, llm, ssm model.Model) core.Config {
	exp := make(tree.ExpansionConfig, f.depth)
	for i := range exp {
		exp[i] = 1
	}
	exp[0] = f.width
	cfg := core.Config{
		Mode:         core.TreeSpec,
		LLM:          llm,
		SSMs:         []model.Model{ssm},
		Expansion:    exp,
		Verifier:     f.verifier,
		SeqDepth:     f.depth,
		Sample:       sampling.GreedyConfig(),
		MaxBatch:     f.batch,
		Seed:         f.seed,
		Workers:      f.workers,
		QueueDepth:   f.queue,
		DrainTimeout: f.drain,
	}
	if w.prefixMB > 0 {
		cfg.PrefixCacheBytes = w.prefixMB << 20
	}
	return cfg
}

// buildServer assembles the daemon from its public constructors. The
// variant is resolved by w.models before decoration, so the engine is
// handed the variant model and no Variant name.
func buildServer(w workloadDef, f daemonFlags, tr *tracer) (*server.Server, []*core.Engine, *router.Router, error) {
	llm, ssm, err := w.models()
	if err != nil {
		return nil, nil, nil, err
	}
	cfg := engineConfig(w, f, tracedModel{llm, "llm", tr}, tracedModel{ssm, "ssm", tr})
	ds := dataset()
	srvCfg := server.Config{Tokenizer: tokenizer.New(ds.Vocab, ds.Seed), MaxNewTokens: f.maxNew}
	engs := make([]*core.Engine, w.replicas)
	for i := range engs {
		if engs[i], err = core.NewEngine(cfg); err != nil {
			return nil, nil, nil, err
		}
	}
	var rt *router.Router
	if w.replicas == 1 {
		srvCfg.Engine = engs[0]
	} else {
		pol, err := router.ParsePolicy(f.routePolicy)
		if err != nil {
			return nil, nil, nil, err
		}
		if rt, err = router.New(router.Config{Replicas: engs, Policy: pol}); err != nil {
			return nil, nil, nil, err
		}
		srvCfg.Router = rt
	}
	srv, err := server.New(srvCfg)
	return srv, engs, rt, err
}

func prefixStats(engs []*core.Engine) kvcache.PrefixStats {
	var sum kvcache.PrefixStats
	for _, e := range engs {
		p := e.PrefixCacheStats()
		sum.Hits += p.Hits
		sum.Misses += p.Misses
		sum.Evictions += p.Evictions
		sum.TokensShared += p.TokensShared
		sum.Bytes += p.Bytes
	}
	return sum
}

// runTraced serves the same requests, in the same phases, from an
// in-process build of the daemon bin whose models are decorated.
func runTraced(ctx context.Context, bin string, w workloadDef, reqs []workload.Request, p plan) (*tracedRun, error) {
	f, err := readDaemonFlags(bin)
	if err != nil {
		return nil, err
	}
	prompts := make([][]int, len(reqs))
	for i, r := range reqs {
		prompts[i] = r.Prompt
	}
	tr := newTracer(prompts, rootID(len(reqs)))
	start := time.Now()
	srv, engs, rt, err := buildServer(w, f, tr)
	if err != nil {
		return nil, err
	}
	srvCtx, stop := context.WithCancel(ctx)
	defer stop()
	runErr := make(chan error, 1)
	go func() { runErr <- srv.Run(srvCtx, "127.0.0.1:0") }()
	addr, err := waitHealthy(srv, runErr)
	if err != nil {
		return nil, err
	}
	setup := time.Since(start)

	// Peak KV bytes are sampled, since the counters are point-in-time.
	var kvPeak, prefixPeak int64
	sampleStop := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		tick := time.NewTicker(statsPeriod)
		defer tick.Stop()
		for {
			var kv int64
			for _, e := range engs {
				kv += e.ServeStats().KVBytesActive
			}
			kvPeak = max(kvPeak, kv)
			prefixPeak = max(prefixPeak, prefixStats(engs).Bytes)
			select {
			case <-sampleStop:
				return
			case <-tick.C:
			}
		}
	}()

	var hits func() (uint64, error)
	if w.prefixMB > 0 {
		hits = func() (uint64, error) { return prefixStats(engs).Hits, nil }
	}
	load := drive(ctx, addr, reqs, p, hits)
	close(sampleStop)
	sampler.Wait()
	load.label, load.setups = "traced", []time.Duration{setup}

	t := &tracedRun{load: load, tr: tr, replicas: w.replicas, prefix: prefixStats(engs),
		kvPeak: kvPeak, prefixPeak: prefixPeak}
	if rt != nil {
		t.fleet = rt.FleetStats()
	} else {
		t.single = engs[0].ServeStats()
	}

	// Direct Submit calls at the placement layer, on requests the load
	// never sent, each admitted into an idle fleet and then cancelled.
	submit := func(c context.Context, r workload.Request) (<-chan model.Token, <-chan core.Result, error) {
		if rt != nil {
			return rt.Submit(c, r)
		}
		return engs[0].Submit(c, r)
	}
	for i := 0; i < directSubmits; i++ {
		r := reqs[len(reqs)-1-i]
		r.ID, r.MaxNewTok = 1<<30+i, 1
		sctx, cancel := context.WithCancel(ctx)
		t0 := time.Now()
		toks, res, err := submit(sctx, r)
		took := time.Since(t0)
		if err != nil {
			cancel()
			load.errs = append(load.errs, "direct submit: "+err.Error())
			continue
		}
		cancel()
		for range toks {
		}
		<-res
		t.submitUs = append(t.submitUs, float64(took)/float64(time.Microsecond))
	}

	stop()
	if err := <-runErr; err != nil {
		load.errs = append(load.errs, "traced server drain: "+err.Error())
	}
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		load.errs = append(load.errs, "read own VmHWM: "+err.Error())
	}
	load.peakRSSMB = rss

	for _, s := range load.all() {
		if s.sent.IsZero() {
			continue
		}
		end := s.done
		if end.IsZero() {
			end = time.Now()
		}
		tr.add([]span{{Name: "client.request", Start: tr.ns(s.due), End: tr.ns(end),
			ID: rootID(s.idx), Req: s.idx, N: len(s.tokens)}})
	}
	// Keep the load's spans; the direct Submit calls above are timed
	// separately.
	sent := map[int]bool{}
	for _, s := range load.all() {
		sent[s.idx] = true
	}
	tr.mu.Lock()
	for _, s := range tr.spans {
		if sent[s.Req] {
			t.spans = append(t.spans, s)
		}
	}
	tr.spans = t.spans
	tr.mu.Unlock()
	t.directTimes = timeDirect(tr, w)
	return t, nil
}

// waitHealthy waits for the in-process server's listener and a 200
// from /healthz.
func waitHealthy(srv *server.Server, runErr chan error) (string, error) {
	deadline := time.Now().Add(30 * time.Second)
	hc := &http.Client{Timeout: time.Second}
	for time.Now().Before(deadline) {
		select {
		case err := <-runErr:
			runErr <- err
			return "", fmt.Errorf("traced server exited: %v", err)
		default:
		}
		if addr := srv.Addr(); addr != "" {
			if resp, err := hc.Get("http://" + addr + "/healthz"); err == nil {
				_ = resp.Body.Close() // only the status is read
				if resp.StatusCode == http.StatusOK {
					return addr, nil
				}
			}
		}
		time.Sleep(time.Millisecond)
	}
	return "", errors.New("traced server not healthy within 30s")
}

func (t *tracedRun) writeSpans(path string) error { return t.tr.writeSpans(path) }

// fidelity checks that the decorated build behaves like the daemon:
// the same prefix-cache hits after the same open-loop traffic, and on
// the shared-prefix workload at least one hit.
func (t *tracedRun) fidelity(w workloadDef, untraced *loadResult) string {
	if w.prefixMB == 0 {
		return ""
	}
	if t.load.hitsOpenLoop != untraced.hitsOpenLoop {
		return fmt.Sprintf("prefix-cache hits differ after the open-loop steps: traced %d, daemon /metricz %d",
			t.load.hitsOpenLoop, untraced.hitsOpenLoop)
	}
	if w.name == "shared-prefix-fleet" && t.load.hitsOpenLoop == 0 {
		return "traced run had no prefix-cache hits on the shared-prefix workload"
	}
	return ""
}

// printOverhead prints every end-to-end metric of the traced run beside
// the untraced one.
func (t *tracedRun) printOverhead(out io.Writer, w workloadDef, p plan, untraced *loadResult) {
	a, b := untraced.endToEnd(w, p), t.load.endToEnd(w, p)
	fmt.Fprintf(out, "== tracing overhead, workload %s (traced / untraced)\n", w.name)
	for _, k := range sortedKeys(a) {
		ratio := 0.0
		if a[k].Value != 0 {
			ratio = b[k].Value / a[k].Value
		}
		fmt.Fprintf(out, "  %-15s untraced %12.4f  traced %12.4f %-6s ratio %.3f\n", k, a[k].Value, b[k].Value, a[k].Unit, ratio)
	}
	fmt.Fprintln(out, "  (traced setup_s starts at engine construction with the models already built; traced peak_rss_mb is the whole benchmark process)")
}

// byName groups the run's spans by name.
func (t *tracedRun) byName() map[string][]span {
	out := map[string][]span{}
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], s)
	}
	return out
}

func durationsMs(ss []span) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = ms(s.dur())
	}
	return out
}

func sumMs(ss []span) float64 {
	var t float64
	for _, s := range ss {
		t += ms(s.dur())
	}
	return t
}

// perLayer computes the per-layer metrics of BENCHMARK.json.
func (t *tracedRun) perLayer(w workloadDef, untraced *loadResult, p plan) map[string]metric {
	_, usteps, _ := untraced.phases(w, p)
	by := t.byName()
	llmPre, llmTree, llmAcc := by["llm.prefill"], by["llm.decode_tree"], by["llm.accept"]
	ssmPre, ssmTree := by["ssm.prefill"], by["ssm.decode_tree"]

	// Per-request model time, for core's self time.
	modelMs := map[int]float64{}
	verifs := map[int]int{}
	for _, s := range t.spans {
		if s.Req < 0 || s.Name == "client.request" {
			continue
		}
		modelMs[s.Req] += ms(s.dur())
		if s.Name == "llm.decode_tree" {
			verifs[s.Req]++
		}
	}
	verifyUs := t.directTimes.verifyUs
	var edge, chunks, queue, self []float64
	for _, s := range t.load.all() {
		if !s.ok() {
			continue
		}
		edge = append(edge, ms(s.done.Sub(s.sent))-s.serverLatMs)
		chunks = append(chunks, float64(s.chunks))
		queue = append(queue, s.queueDelayMs)
		self = append(self, s.serverLatMs-s.queueDelayMs-modelMs[s.idx]-float64(verifs[s.idx])*verifyUs/1000)
	}

	var promptToks, sharedToks, allPrompt, treeNodes int
	var llmHits, llmLookups int
	for _, s := range llmPre {
		promptToks += s.N
		sharedToks += s.Shared
		llmLookups++
		if s.Shared > 0 {
			llmHits++
		}
	}
	for _, s := range append(append([]span(nil), llmPre...), ssmPre...) {
		allPrompt += s.N
	}
	for _, s := range llmTree {
		treeNodes += s.N
	}

	// Engine counters: fleet rollup or the single engine.
	var iters, verifications, accepted, rerouted uint64
	skew := 1.0
	if t.replicas > 1 {
		fs := t.fleet
		verifications, accepted, rerouted = fs.SpecVerifications, fs.SpecTokensAccepted, fs.Rerouted
		var maxSub, sumSub float64
		for _, r := range fs.Replicas {
			iters += r.Iterations
			sumSub += float64(r.Submitted)
			maxSub = max(maxSub, float64(r.Submitted))
		}
		if sumSub > 0 {
			skew = maxSub / (sumSub / float64(len(fs.Replicas)))
		}
	} else {
		st := t.single
		iters, verifications, accepted = st.Iterations, st.SpecVerifications, st.SpecTokensAccepted
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	nReq := float64(len(self))
	if !t.load.prefixEnabled {
		llmLookups = 0 // the cache is off: no lookups happened
	}
	d := t.directTimes
	return map[string]metric{
		"loadgen.lag_ms_p90":                {usteps[1].LagP90, "ms"},
		"server.edge_ms_p50":                {quantile(edge, 0.5), "ms"},
		"server.chunks_per_req":             {mean(chunks), "chunks"},
		"server.failed":                     {float64(t.load.failed()), "count"},
		"router.submit_us_p50":              {quantile(t.submitUs, 0.5), "us"},
		"router.replica_skew":               {skew, "ratio"},
		"router.rerouted":                   {float64(rerouted), "count"},
		"core.queue_wait_ms_p50":            {quantile(queue, 0.5), "ms"},
		"core.queue_wait_ms_p90":            {quantile(queue, 0.9), "ms"},
		"core.batch_mean":                   {ratio(float64(verifications), float64(iters)), "requests"},
		"core.self_ms_per_req":              {mean(self), "ms"},
		"speculator.ssm_ms_per_step":        {ratio(sumMs(ssmTree), float64(len(llmTree))), "ms"},
		"speculator.ssm_prefill_ms_p50":     {quantile(durationsMs(ssmPre), 0.5), "ms"},
		"speculator.tree_nodes_mean":        {ratio(float64(treeNodes), float64(len(llmTree))), "nodes"},
		"speculator.busy_ms_per_req":        {ratio(sumMs(ssmTree)+sumMs(ssmPre)+sumMs(by["ssm.accept"]), nReq), "ms"},
		"llm.prefill_ms_p50":                {quantile(durationsMs(llmPre), 0.5), "ms"},
		"llm.prefill_ms_p90":                {quantile(durationsMs(llmPre), 0.9), "ms"},
		"llm.prefill_novel_ratio":           {ratio(float64(promptToks-sharedToks), float64(promptToks)), "ratio"},
		"llm.decode_tree_ms_p50":            {quantile(durationsMs(llmTree), 0.5), "ms"},
		"llm.decode_tree_us_per_node":       {1000 * ratio(sumMs(llmTree), float64(treeNodes)), "us"},
		"llm.accept_ms_p50":                 {quantile(durationsMs(llmAcc), 0.5), "ms"},
		"llm.busy_ms_per_req":               {ratio(sumMs(llmPre)+sumMs(llmTree)+sumMs(llmAcc), nReq), "ms"},
		"verifier.verify_us_p50":            {verifyUs, "us"},
		"verifier.accept_len_mean":          {ratio(float64(accepted), float64(verifications)), "tokens"},
		"verifier.useful_node_ratio":        {ratio(float64(accepted), float64(treeNodes)), "ratio"},
		"kvcache.hit_ratio":                 {ratio(float64(llmHits), float64(llmLookups)), "ratio"},
		"kvcache.tokens_shared_ratio":       {ratio(float64(t.prefix.TokensShared), float64(allPrompt)), "ratio"},
		"kvcache.evictions":                 {float64(t.prefix.Evictions), "count"},
		"kvcache.bytes_peak":                {float64(t.prefixPeak), "B"},
		"kvcache.kv_active_bytes_peak":      {float64(t.kvPeak), "B"},
		"tensor.matmult_gflops":             {d.gflops, "GFLOP/s"},
		"tensor.matmult_bytes_per_call":     {d.bytesPerCall, "B"},
		"tensor.softmax_masked_ns_per_elem": {d.softmaxNs, "ns"},
		"ngram.dist_us_p50":                 {d.distUs, "us"},
	}
}
