package main

import (
	"flag"
	"strings"
	"testing"
	"time"
)

// TestFlagDefaults parses what flag.PrintDefaults prints, including
// usage texts that end in their own "(default ...)".
func TestFlagDefaults(t *testing.T) {
	fs := flag.NewFlagSet("d", flag.ContinueOnError)
	fs.Int("width", 3, "tree width")
	fs.Int("topk", 0, "top-k filter, 0 disables")
	fs.Uint64("seed", 7, "seed")
	fs.Duration("drain-timeout", 30*time.Second, "drain bound")
	fs.String("route-policy", "prefix-affinity", "placement")
	fs.String("verifier", "", "algorithm (default mss; ignored under greedy decoding)")
	fs.Bool("stochastic", false, "stochastic decoding (default greedy)")
	fs.Bool("x", true, "short bool")
	var b strings.Builder
	fs.SetOutput(&b)
	fs.PrintDefaults()

	got := flagDefaults(b.String())
	want := map[string]string{
		"width": "3", "topk": "", "seed": "7", "drain-timeout": "30s",
		"route-policy": `"prefix-affinity"`, "verifier": "mss; ignored under greedy decoding",
		"stochastic": "greedy", "x": "true",
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("default of -%s = %q, want %q", k, got[k], v)
		}
	}
	if len(got) != len(want) {
		t.Errorf("parsed %d flags, want %d: %v", len(got), len(want), got)
	}
}
