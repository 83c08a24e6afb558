package main

import (
	"context"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestTracedBuildMatchesDaemon checks that the decorated in-process
// build serves the shared-prefix workload like the specinferd binary:
// the same prefix-cache hits after the same open-loop traffic (so the
// decorators forward what core's prefix cache probes), at least one
// hit, identical outputs, and every output equal to the oracle's.
func TestTracedBuildMatchesDaemon(t *testing.T) {
	if testing.Short() {
		t.Skip("starts the daemon and serves traffic for several seconds")
	}
	bin := filepath.Join(t.TempDir(), "specinferd")
	if out, err := exec.Command("go", "build", "-o", bin, "specinfer/cmd/specinferd").CombinedOutput(); err != nil {
		t.Fatalf("build specinferd: %v\n%s", err, out)
	}
	w, err := lookupWorkload("shared-prefix-fleet")
	if err != nil {
		t.Fatal(err)
	}
	const seed = 3
	p := newPlan(w, seed, 6)
	reqs := w.requests(seed, p.poolSize)
	ctx := context.Background()

	untraced, err := runUntraced(ctx, bin, w, reqs, p)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := runTraced(ctx, bin, w, reqs, p)
	if err != nil {
		t.Fatal(err)
	}
	if msg := traced.fidelity(w, untraced); msg != "" {
		t.Error(msg)
	}
	if traced.load.hitsOpenLoop == 0 {
		t.Error("no prefix-cache hits in the traced run")
	}
	orc, err := newOracle(w)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*loadResult{untraced, traced.load} {
		r.check(orc, reqs)
		if !r.correct() {
			t.Errorf("%s run: %d of %d requests failed, errors %v", r.label, r.failed(), r.attempted(), r.errs)
		}
	}
	if n := compareOutputs(untraced, traced.load); n != 0 {
		t.Errorf("%d requests produced different outputs in the two runs", n)
	}
}
