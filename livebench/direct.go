package main

import (
	"time"

	"specinfer/internal/bench"
	"specinfer/internal/tensor"
	"specinfer/internal/verifier"
)

// directTimes are the layer timings taken by calling a layer's public
// function directly on inputs the traced run recorded.
type directTimes struct {
	verifyUs     float64 // verifier.VerifyGreedy per call, p50 over recorded trees
	gflops       float64 // tensor.MatMulT throughput at the LLM's shapes
	bytesPerCall float64 // tensor.MatMulT operand+result bytes, computed from sizes
	softmaxNs    float64 // tensor.SoftmaxMasked per element
	distUs       float64 // ngram Dist per call, p50 over recorded histories
}

// medianTime runs f reps times and returns the median duration.
func medianTime(reps int, f func()) time.Duration {
	ds := make([]float64, reps)
	for i := range ds {
		t0 := time.Now()
		f()
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(quantile(ds, 0.5))
}

func randMatrix(rng *tensor.RNG, rows, cols int) *tensor.Matrix {
	m := tensor.NewMatrix(rows, cols)
	rng.FillNormal(m.Data, 0.02)
	return m
}

// timeDirect replays the recorded inputs through the layers' public
// functions, after the load, on an idle process. The tensor kernels are
// timed only when w's LLM is the transformer, and Dist only when it is
// the n-gram model: the other substrate's code never runs on w, and
// its metrics stay 0 (see notMeasured).
func timeDirect(tr *tracer, w workloadDef) directTimes {
	tr.mu.Lock()
	trees := append([]treeSample(nil), tr.trees...)
	count := make(map[int]int, len(tr.rows))
	for n, k := range tr.rows {
		count[n] = k
	}
	hists := append([][]int(nil), tr.histories...)
	tr.mu.Unlock()
	var d directTimes

	var verify []float64
	for _, ts := range trees {
		t := medianTime(directRepeats, func() { verifier.VerifyGreedy(ts.dists, ts.tr) })
		verify = append(verify, float64(t)/float64(time.Microsecond))
	}
	d.verifyUs = quantile(verify, 0.5)
	if w.transformer() {
		d.gflops, d.bytesPerCall, d.softmaxNs = timeTensor(trees, count)
	} else {
		d.distUs = timeDist(hists)
	}
	return d
}

// timeTensor times MatMulT at the transformer LLM's weight shapes, with
// the forward row counts the run issued, and SoftmaxMasked on
// tree-attention score rows of the recorded trees.
func timeTensor(trees []treeSample, count map[int]int) (gflops, bytesPerCall, softmaxNs float64) {
	shape := bench.TransformerPair(dataset()).LLM.Config()
	// One forward pass issues, per layer, four hidden x hidden
	// projections, two ffn x hidden (gate, up) and one hidden x ffn
	// (down), plus the vocab x hidden LM head.
	type mm struct{ out, in, mult int }
	shapes := []mm{
		{shape.Hidden, shape.Hidden, 4 * shape.Layers},
		{shape.FFN, shape.Hidden, 2 * shape.Layers},
		{shape.Hidden, shape.FFN, shape.Layers},
		{shape.Vocab, shape.Hidden, 1},
	}
	rng := tensor.NewRNG(7)
	weights := make([]*tensor.Matrix, len(shapes))
	for i, s := range shapes {
		weights[i] = randMatrix(rng, s.out, s.in)
	}
	// Forward passes repeat a few row counts (prefill chunks, tree
	// sizes): time each distinct count once and weight it by how often
	// the run issued it.
	var flops, bytes, calls float64
	var busy time.Duration
	for n, k := range count {
		for i, s := range shapes {
			x := randMatrix(rng, n, s.in)
			out := tensor.NewMatrix(n, s.out)
			t := medianTime(5, func() { tensor.MatMulT(weights[i], x, out) })
			m := float64(k * s.mult)
			busy += time.Duration(m * float64(t))
			flops += m * 2 * float64(n*s.in*s.out)
			bytes += m * 4 * float64(n*s.in+s.in*s.out+n*s.out)
			calls += m
		}
	}
	if busy > 0 {
		gflops = flops / busy.Seconds() / 1e9
		bytesPerCall = bytes / calls
	}

	// Tree attention: each new token's score row spans the committed
	// context plus the tree, with tree positions outside its ancestry
	// masked.
	var elems float64
	var smBusy time.Duration
	for _, ts := range trees {
		n := ts.tr.Len()
		for i := 0; i < n; i++ {
			row := make([]float32, ts.ctx+i+1)
			rng.FillNormal(row, 1)
			for j := 0; j <= i; j++ {
				if !ts.tr.IsAncestorOrSelf(j, i) {
					row[ts.ctx+j] = tensor.NegInf
				}
			}
			bufs := make([][]float32, directRepeats)
			for k := range bufs {
				bufs[k] = append([]float32(nil), row...)
			}
			t0 := time.Now()
			for _, b := range bufs {
				tensor.SoftmaxMasked(b)
			}
			smBusy += time.Since(t0)
			elems += float64(len(row) * len(bufs))
		}
	}
	if elems > 0 {
		softmaxNs = float64(smBusy) / elems
	}
	return gflops, bytesPerCall, softmaxNs
}

// timeDist times the n-gram LLM's Dist on the recorded histories.
func timeDist(hists [][]int) float64 {
	ng := bench.Models(dataset()).LLM
	var dist []float64
	for _, h := range hists {
		t := medianTime(directRepeats, func() { ng.Dist(h) })
		dist = append(dist, float64(t)/float64(time.Microsecond))
	}
	return quantile(dist, 0.5)
}

// notMeasured names the per-layer metrics w never exercises, reported
// as 0.
func notMeasured(w workloadDef) []string {
	if w.transformer() {
		return []string{"ngram.dist_us_p50"}
	}
	return []string{"tensor.matmult_gflops", "tensor.matmult_bytes_per_call", "tensor.softmax_masked_ns_per_elem"}
}
