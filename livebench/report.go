package main

import (
	"fmt"
	"io"
	"sort"
	"time"

	"specinfer/internal/metrics"
)

// goodShare is the share of requests sent that must meet both SLO
// limits for a step to count toward goodput.
const goodShare = 0.9

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return metrics.Quantile(s, q)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// phaseStats summarizes the requests of one phase.
type phaseStats struct {
	Name       string  `json:"name"`
	RateRPS    float64 `json:"rate_rps,omitempty"`
	Sent       int     `json:"sent"`
	Succeeded  int     `json:"succeeded"`
	Failed     int     `json:"failed"`
	TTFTP50    float64 `json:"ttft_p50_ms"`
	TTFTP90    float64 `json:"ttft_p90_ms"`
	TPOTP50    float64 `json:"tpot_p50_ms"`
	TPOTP90    float64 `json:"tpot_p90_ms"`
	LatP50     float64 `json:"latency_p50_ms"`
	LatP90     float64 `json:"latency_p90_ms"`
	LagP90     float64 `json:"lag_p90_ms"`
	SLOMet     int     `json:"slo_met"`
	LagGrowing bool    `json:"lag_growing"`
	OutTokens  int     `json:"output_tokens"`
	// WallS sums, over the phase's segments, the time from the first
	// due time to the last completion.
	WallS      float64 `json:"wall_s"`
	ttft, tpot []float64
	lat, lag   []float64
}

func stats(name string, rate float64, ss []*sample, w workloadDef) phaseStats {
	p := phaseStats{Name: name, RateRPS: rate, Sent: len(ss)}
	byRound := map[int][]*sample{}
	for _, s := range ss {
		byRound[s.round] = append(byRound[s.round], s)
		p.lag = append(p.lag, ms(s.sent.Sub(s.due)))
		if !s.ok() {
			p.Failed++
			continue
		}
		p.Succeeded++
		p.OutTokens += len(s.tokens)
		ttft := s.ttft()
		p.ttft = append(p.ttft, ms(ttft))
		p.lat = append(p.lat, ms(s.latency()))
		tpot, hasTPOT := s.tpot()
		if hasTPOT {
			p.tpot = append(p.tpot, ms(tpot))
		}
		if ttft <= w.ttftLimit && (!hasTPOT || tpot <= w.tpotLimit) {
			p.SLOMet++
		}
	}
	p.TTFTP50, p.TTFTP90 = quantile(p.ttft, 0.5), quantile(p.ttft, 0.9)
	p.TPOTP50, p.TPOTP90 = quantile(p.tpot, 0.5), quantile(p.tpot, 0.9)
	p.LatP50, p.LatP90 = quantile(p.lat, 0.5), quantile(p.lat, 0.9)
	p.LagP90 = quantile(p.lag, 0.9)
	// Each round's segment of the phase is timed on its own: from its
	// first due time to its last completion, and for lag growth from
	// its first third of sends to its last third.
	var growth []float64
	for _, seg := range byRound {
		var first, last time.Time
		var lag []float64
		for _, s := range seg {
			if first.IsZero() || s.due.Before(first) {
				first = s.due
			}
			if s.done.After(last) {
				last = s.done
			}
			lag = append(lag, ms(s.sent.Sub(s.due)))
		}
		if last.After(first) {
			p.WallS += last.Sub(first).Seconds()
		}
		if third := len(lag) / 3; third >= 2 {
			growth = append(growth, mean(lag[len(lag)-third:])-mean(lag[:third]))
		}
	}
	// The generator has a growing backlog when, in the median segment,
	// sends in the last third ran later than those in the first third
	// by more than three mean arrival intervals.
	if rate > 0 && len(growth) > 0 {
		p.LagGrowing = quantile(growth, 0.5) > 3*1000/rate
	}
	return p
}

// passes reports whether the step meets the goodput SLO.
func (p phaseStats) passes() bool {
	return p.Sent > 0 && float64(p.SLOMet) >= goodShare*float64(p.Sent) && !p.LagGrowing
}

func (r *loadResult) phases(w workloadDef, pl plan) (warm phaseStats, steps [3]phaseStats, closed phaseStats) {
	warm = stats("unloaded", 0, r.warm, w)
	for i, ss := range r.steps {
		steps[i] = stats(stepName(i), pl.rates[i], ss, w)
	}
	closed = stats("closed", 0, r.closed, w)
	return
}

func medianDur(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return quantile(xs, 0.5)
}

// endToEnd computes the end-to-end metrics of BENCHMARK.json.
func (r *loadResult) endToEnd(w workloadDef, pl plan) map[string]metric {
	_, steps, closed := r.phases(w, pl)
	nom := steps[1]
	// Goodput is read at the highest passing step, as the requests that
	// met the SLO per second of that step's wall time.
	goodput := 0.0
	for _, st := range steps {
		if st.passes() && st.WallS > 0 {
			goodput = float64(st.SLOMet) / st.WallS
		}
	}
	att := r.attempted()
	return map[string]metric{
		"setup_s":        {medianDur(r.setups), "s"},
		"ttft_p50_ms":    {nom.TTFTP50, "ms"},
		"ttft_p90_ms":    {nom.TTFTP90, "ms"},
		"tpot_p50_ms":    {nom.TPOTP50, "ms"},
		"tpot_p90_ms":    {nom.TPOTP90, "ms"},
		"latency_p50_ms": {nom.LatP50, "ms"},
		"latency_p90_ms": {nom.LatP90, "ms"},
		"goodput_rps":    {goodput, "req/s"},
		"sat_tok_s":      {float64(closed.OutTokens) / r.closedDur.Seconds(), "tok/s"},
		"ok_ratio":       {float64(att-r.failed()) / float64(att), "ratio"},
		"peak_rss_mb":    {r.peakRSSMB, "MiB"},
	}
}

// sampleCounts names the sample count behind each end-to-end metric.
func (r *loadResult) sampleCounts(w workloadDef, pl plan) map[string]int {
	_, steps, closed := r.phases(w, pl)
	nom := steps[1]
	return map[string]int{
		"setup_s": len(r.setups), "ttft_p50_ms": len(nom.ttft), "ttft_p90_ms": len(nom.ttft),
		"tpot_p50_ms": len(nom.tpot), "tpot_p90_ms": len(nom.tpot),
		"latency_p50_ms": len(nom.lat), "latency_p90_ms": len(nom.lat),
		"goodput_rps": steps[0].Sent + steps[1].Sent + steps[2].Sent,
		"sat_tok_s":   closed.Succeeded, "ok_ratio": r.attempted(), "peak_rss_mb": 1,
	}
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// print writes the human-readable report of one run.
func (r *loadResult) print(out io.Writer, w workloadDef, pl plan) {
	warm, steps, closed := r.phases(w, pl)
	fmt.Fprintf(out, "== %s run, workload %s (SLO: TTFT <= %v, TPOT <= %v; %d connections)\n",
		r.label, w.name, w.ttftLimit, w.tpotLimit, pl.conns)
	fmt.Fprintf(out, "  set-up: %d daemon starts, median %.4f s\n", len(r.setups), medianDur(r.setups))
	for _, p := range append(append([]phaseStats{warm}, steps[:]...), closed) {
		// Open-loop steps show their offered rate; the closed loop shows
		// the rate it completed requests at.
		rate, verdict := "1 client", ""
		switch {
		case p.RateRPS > 0:
			rate = fmt.Sprintf("%.2f req/s", p.RateRPS)
			verdict = fmt.Sprintf(" slo %d/%d pass=%v lag_growing=%v", p.SLOMet, p.Sent, p.passes(), p.LagGrowing)
		case p.Name == "closed" && r.closedDur > 0:
			rate = fmt.Sprintf("%.2f req/s", float64(p.Succeeded)/r.closedDur.Seconds())
		}
		fmt.Fprintf(out, "  %-8s %-12s sent %4d ok %4d failed %d | ttft p50 %.2f p90 %.2f ms (n=%d) | tpot p50 %.3f p90 %.3f ms (n=%d) | lat p50 %.2f p90 %.2f ms | lag p90 %.2f ms%s\n",
			p.Name, rate, p.Sent, p.Succeeded, p.Failed, p.TTFTP50, p.TTFTP90, len(p.ttft),
			p.TPOTP50, p.TPOTP90, len(p.tpot), p.LatP50, p.LatP90, p.LagP90, verdict)
	}
	if r.prefixEnabled {
		fmt.Fprintf(out, "  prefix-cache hits after the first round's open-loop steps: %d\n", r.hitsOpenLoop)
	}
	e2e, n := r.endToEnd(w, pl), r.sampleCounts(w, pl)
	for _, k := range sortedKeys(e2e) {
		fmt.Fprintf(out, "  %-15s %12.4f %-6s (n=%d)\n", k, e2e[k].Value, e2e[k].Unit, n[k])
	}
	for _, e := range r.errs {
		fmt.Fprintf(out, "  run error: %s\n", e)
	}
	if r.wrapped {
		fmt.Fprintln(out, "  run error: request pool exhausted; prompts repeated")
	}
	for _, s := range r.all() {
		if !s.ok() {
			fmt.Fprintf(out, "  failed request %d (%s): %s\n", s.idx, s.phase, s.err)
		}
	}
}

// summary is the machine-readable record of one run for the results
// file.
func (r *loadResult) summary(w workloadDef, pl plan) map[string]any {
	warm, steps, closed := r.phases(w, pl)
	return map[string]any{
		"phases":        []phaseStats{warm, steps[0], steps[1], steps[2], closed},
		"end_to_end":    r.endToEnd(w, pl),
		"sample_counts": r.sampleCounts(w, pl),
		"errors":        r.errs,
	}
}
