package main

import (
	"fmt"
	"runtime"
	"sync"

	"specinfer/internal/model"
	"specinfer/internal/tensor"
	"specinfer/internal/workload"
)

// oracle is the reference output of the daemon: a greedy incremental
// decode of the same LLM (Prefill, then argmax Decode) through the
// model's public session API. Lossless tree speculation under greedy
// decoding must reproduce it token for token, with or without the
// prefix cache and across replicas.
type oracle struct {
	llm model.Model
	mu  sync.Mutex
	out map[int][]int // pool index -> expected output
}

func newOracle(w workloadDef) (*oracle, error) {
	llm, _, err := w.models()
	if err != nil {
		return nil, err
	}
	return &oracle{llm: llm, out: map[int][]int{}}, nil
}

func greedyDecode(m model.Model, req workload.Request) []int {
	sess := m.NewSession()
	if c, ok := sess.(model.Closer); ok {
		defer c.Close()
	}
	dist := sess.Prefill(req.Prompt)
	out := make([]int, 0, req.MaxNewTok)
	for len(out) < req.MaxNewTok {
		tok, _ := tensor.ArgMax(dist)
		out = append(out, tok)
		if len(out) < req.MaxNewTok {
			dist = sess.Decode(tok)
		}
	}
	return out
}

// expect computes the expected outputs of the given pool indices with
// workers goroutines, outside any timed window.
func (o *oracle) expect(reqs []workload.Request, idxs []int, workers int) {
	o.mu.Lock()
	var todo []int
	seen := map[int]bool{}
	for _, i := range idxs {
		if _, ok := o.out[i]; !ok && !seen[i] {
			seen[i] = true
			todo = append(todo, i)
		}
	}
	o.mu.Unlock()
	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				got := greedyDecode(o.llm, reqs[i])
				o.mu.Lock()
				o.out[i] = got
				o.mu.Unlock()
			}
		}()
	}
	for _, i := range todo {
		next <- i
	}
	close(next)
	wg.Wait()
}

// check marks every completed request whose output differs from the
// oracle as failed.
func (r *loadResult) check(o *oracle, reqs []workload.Request) {
	all := r.all()
	idxs := make([]int, len(all))
	for i, s := range all {
		idxs[i] = s.idx
	}
	o.expect(reqs, idxs, runtime.NumCPU())
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, s := range all {
		if !s.ok() {
			continue
		}
		want := o.out[s.idx]
		if k := firstDiff(s.tokens, want); k >= 0 {
			s.err = fmt.Sprintf("oracle mismatch at output token %d of %d (got %d tokens)", k, len(want), len(s.tokens))
			r.oracleFails++
		}
	}
}

// firstDiff returns the first index where a and b differ, or -1.
func firstDiff(a, b []int) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return n
	}
	return -1
}

// compareOutputs counts requests whose outputs differ between the two
// runs (both sent the same pool index sequence).
func compareOutputs(a, b *loadResult) int {
	byIdx := map[int][]int{}
	for _, s := range a.all() {
		if s.ok() {
			byIdx[s.idx] = s.tokens
		}
	}
	n := 0
	for _, s := range b.all() {
		if want, ok := byIdx[s.idx]; ok && s.ok() && firstDiff(s.tokens, want) >= 0 {
			n++
		}
	}
	return n
}
