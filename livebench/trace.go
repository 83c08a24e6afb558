package main

import (
	"bufio"
	"encoding/json"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"specinfer/internal/kvcache"
	"specinfer/internal/model"
	"specinfer/internal/tree"
)

// span is one timed call at a layer boundary. Spans of one request
// share Req (its index in the request pool) and have the request's
// client span as parent.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for a root span
	Req    int    `json:"req"`    // -1 when no request owns the call
	// N is the call's work: prompt tokens for a prefill, speculated
	// nodes for a tree decode, tokens for an accept.
	N int `json:"n,omitempty"`
	// Shared is the prompt prefix a prefill adopted from the prefix
	// cache.
	Shared int `json:"shared,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// rootID is the span ID of request idx's client span; other spans take
// IDs above every root.
func rootID(idx int) int64 { return int64(idx) + 1 }

// maxDirectSamples bounds the inputs each direct timed call keeps.
const maxDirectSamples = 256

// treeSample is one LLM tree verification's input, kept for timing
// verifier, attention-softmax and matmul calls directly after the run.
type treeSample struct {
	tr    *tree.Tree
	dists [][]float32
	ctx   int // committed tokens before the tree
}

// tracer keeps spans in memory and the inputs direct timed calls
// replay; it writes spans out when the run ends.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64
	// reqOf maps a prompt to its request's pool index, so a session can
	// name its request from the prompt it is prefilled with.
	reqOf map[uint64]int

	mu        sync.Mutex
	spans     []span       // guarded by mu
	trees     []treeSample // guarded by mu
	histories [][]int      // guarded by mu
	rows      map[int]int  // guarded by mu; LLM forward passes by row count
	treeCalls int          // guarded by mu
}

func newTracer(reqs [][]int, firstID int64) *tracer {
	t := &tracer{epoch: time.Now(), reqOf: make(map[uint64]int, len(reqs)), rows: map[int]int{}}
	for i, p := range reqs {
		t.reqOf[promptKey(p)] = i
	}
	t.nextID.Store(firstID)
	return t
}

func promptKey(p []int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range p {
		for i := range b {
			b[i] = byte(uint64(v) >> (8 * i))
		}
		_, _ = h.Write(b[:]) // hash.Hash writes never fail
	}
	return h.Sum64()
}

func (t *tracer) ns(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

func (t *tracer) add(ss []span) {
	t.mu.Lock()
	t.spans = append(t.spans, ss...)
	t.mu.Unlock()
}

func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			_ = f.Close() // the encode error is the one reported
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		_ = f.Close() // the flush error is the one reported
		return err
	}
	return f.Close()
}

// tracedModel is the timing decorator around the LLM or an SSM. Every
// session it opens records a span per call.
type tracedModel struct {
	model.Model
	role string // "llm" or "ssm"
	tr   *tracer
}

func (m tracedModel) NewSession() model.Session {
	return &tracedSession{inner: m.Model.NewSession(), role: m.role, tr: m.tr, req: -1}
}

// prefixSharer is the structural interface core's prefix cache probes
// on a session. The decorator forwards it, or the engine would silently
// prefill cold and the traced run would measure a different program.
type prefixSharer interface {
	Arena() *kvcache.Arena
	PrefillShared(h *kvcache.PinnedPrefix, prompt []model.Token) []float32
}

// tracedSession records spans locally (a session is used by one
// goroutine at a time) and hands them to the tracer on Close, which the
// engine calls when the request retires.
type tracedSession struct {
	inner   model.Session
	role    string
	tr      *tracer
	req     int
	spans   []span
	history []int // committed tokens, for the n-gram direct calls
	closed  bool
}

var (
	_ model.Session    = (*tracedSession)(nil)
	_ model.Closer     = (*tracedSession)(nil)
	_ model.CacheSizer = (*tracedSession)(nil)
	_ prefixSharer     = (*tracedSession)(nil)
)

func (s *tracedSession) record(name string, start time.Time, n, shared int) {
	parent := int64(0)
	if s.req >= 0 {
		parent = rootID(s.req)
	}
	s.spans = append(s.spans, span{
		Name: s.role + "." + name, Start: s.tr.ns(start), End: s.tr.ns(time.Now()),
		ID: s.tr.nextID.Add(1), Parent: parent, Req: s.req, N: n, Shared: shared,
	})
}

func (s *tracedSession) begin(prompt []model.Token) {
	if i, ok := s.tr.reqOf[promptKey(prompt)]; ok {
		s.req = i
	}
	s.history = append(s.history, prompt...)
}

func (s *tracedSession) Prefill(prompt []model.Token) []float32 {
	s.begin(prompt)
	start := time.Now()
	d := s.inner.Prefill(prompt)
	s.record("prefill", start, len(prompt), 0)
	s.noteRows(len(prompt))
	return d
}

// Arena forwards the inner session's paged arena, or nil when it has
// none (the n-gram substrate), which makes core prefill cold exactly as
// it does for the undecorated session.
func (s *tracedSession) Arena() *kvcache.Arena {
	if sh, ok := s.inner.(prefixSharer); ok {
		return sh.Arena()
	}
	return nil
}

// PrefillShared is only reached when Arena returned non-nil, so the
// inner session implements it.
func (s *tracedSession) PrefillShared(h *kvcache.PinnedPrefix, prompt []model.Token) []float32 {
	s.begin(prompt)
	start := time.Now()
	d := s.inner.(prefixSharer).PrefillShared(h, prompt)
	s.record("prefill", start, len(prompt), h.Len())
	s.noteRows(len(prompt) - h.Len())
	return d
}

func (s *tracedSession) Decode(tok model.Token) []float32 {
	start := time.Now()
	d := s.inner.Decode(tok)
	s.record("decode", start, 1, 0)
	s.history = append(s.history, tok)
	return d
}

func (s *tracedSession) DecodeTree(t *tree.Tree) [][]float32 {
	ctx := s.inner.Len()
	start := time.Now()
	d := s.inner.DecodeTree(t)
	s.record("decode_tree", start, t.NumSpeculated(), 0)
	if s.role == "llm" {
		s.tr.mu.Lock()
		s.tr.treeCalls++
		s.tr.rows[t.Len()]++
		// Keep every 8th tree, up to the cap, as a replay input.
		if s.tr.treeCalls%8 == 1 && len(s.tr.trees) < maxDirectSamples {
			cp := make([][]float32, len(d))
			for i, row := range d {
				cp[i] = append([]float32(nil), row...)
			}
			s.tr.trees = append(s.tr.trees, treeSample{tr: t, dists: cp, ctx: ctx})
			h := append([]int(nil), s.history...)
			s.tr.histories = append(s.tr.histories, h)
		}
		s.tr.mu.Unlock()
	}
	return d
}

func (s *tracedSession) Accept(tokens []model.Token) []float32 {
	start := time.Now()
	d := s.inner.Accept(tokens)
	s.record("accept", start, len(tokens), 0)
	s.history = append(s.history, tokens...)
	return d
}

func (s *tracedSession) Len() int { return s.inner.Len() }

func (s *tracedSession) CacheBytes() int {
	if cs, ok := s.inner.(model.CacheSizer); ok {
		return cs.CacheBytes()
	}
	return 0
}

func (s *tracedSession) Close() {
	if s.closed {
		return
	}
	s.closed = true
	if c, ok := s.inner.(model.Closer); ok {
		c.Close()
	}
	s.tr.add(s.spans)
	s.spans = nil
}

// noteRows records an LLM prefill's computed row count.
func (s *tracedSession) noteRows(n int) {
	if s.role != "llm" || n <= 0 {
		return
	}
	s.tr.mu.Lock()
	// The transformer prefills in chunks of prefillChunkSz rows.
	for ; n > 0; n -= prefillChunkSz {
		s.tr.rows[min(n, prefillChunkSz)]++
	}
	s.tr.mu.Unlock()
}
