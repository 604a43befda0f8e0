package main

import (
	"fmt"
	"io"
	"math"
	"os"
)

// simOutcomes are the simulated results, deterministic at a fixed seed.
var simOutcomes = map[string]bool{"sim_goodput_mbps": true, "sim_delay_p95_ms": true, "sim_jain_min": true}

// outcomeInfo are the deterministic info fields of an untraced result. They
// vary too much between seeds to carry a driver-side bound, so the comparator
// holds them itself: a performance or simplicity change must leave them
// identical (diff tolerates 0.1 %), and two runs of one commit agree exactly.
var outcomeInfo = []string{"sim_goodput_mbps", "sim_delay_p95_ms", "sim_jain_min", "ckpt_bytes"}

const outcomeTolerance = 0.001

// sameInputBound tightens a declared bound when both files ran the same seed
// and sizes: allocation counts repeat to a fraction of a percent there, while
// the declared bound has to cover their spread between seeds.
var sameInputBound = map[string]float64{"allocs_per_sim_s": 0.01, "alloc_mb_per_sim_s": 0.01}

// exact reports whether a metric is deterministic: simulated outcomes, counts
// and sizes. Two runs of one commit at one seed must agree on it exactly.
func exact(d metricDecl) bool {
	switch d.Unit {
	case "count", "bytes", "pkts":
		return true
	}
	return simOutcomes[d.Name]
}

// worsening is how far new moved from old in the metric's bad direction, as
// a share of old; negative is an improvement.
func worsening(d metricDecl, old, new float64) float64 {
	if old == 0 {
		if new == 0 {
			return 0
		}
		old = new // no base to take a share of: any change from zero counts in full
	}
	delta := (new - old) / math.Abs(old)
	if d.Better == "higher" {
		return -delta
	}
	return delta
}

// compareMain implements `diff old.json new.json` — per-metric delta against
// its bound, exit 1 on a regression, a higher fail_frac or a result that went
// missing — and `repeat a.json b.json` — two runs of one commit: bounded
// metrics within their bound in either direction, exact metrics exactly.
func compareMain(mode string, args []string) int {
	if len(args) != 2 {
		fmt.Fprintf(os.Stderr, "usage: bench %s a.json b.json\n", mode)
		return 2
	}
	sp, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	a, err := readResultFile(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := readResultFile(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if compare(os.Stdout, sp, mode, a, b) {
		return 0
	}
	return 1
}

// compare prints one line per metric and reports whether b is acceptable
// beside a under the mode's rule.
func compare(w io.Writer, sp *spec, mode string, a, b *resultFile) bool {
	ok := true
	fail := func(format string, args ...any) {
		ok = false
		fmt.Fprintf(w, "FAIL "+format+"\n", args...)
	}
	find := func(rf *resultFile, r *result) *result {
		for _, c := range rf.Results {
			if c.Workload == r.Workload && c.Trace == r.Trace {
				return c
			}
		}
		return nil
	}
	for _, ra := range a.Results {
		rb := find(b, ra)
		if rb == nil {
			fail("%s trace=%v: missing from the second file", ra.Workload, ra.Trace)
			continue
		}
		if mode == "repeat" && ra.Provenance.Seed != rb.Provenance.Seed {
			fail("%s: seeds differ (%d, %d); repeat compares two runs of one input", ra.Workload, ra.Provenance.Seed, rb.Provenance.Seed)
		}
		fa := float64(ra.Failed) / float64(max(ra.Attempted, 1))
		fb := float64(rb.Failed) / float64(max(rb.Attempted, 1))
		if fb > fa || (mode == "repeat" && fa != fb) {
			fail("%s trace=%v: fail_frac %g -> %g", ra.Workload, ra.Trace, fa, fb)
		}
		if mode == "repeat" && ra.RenderSHA256 != rb.RenderSHA256 {
			fail("%s trace=%v: renders differ (%.12s, %.12s)", ra.Workload, ra.Trace, ra.RenderSHA256, rb.RenderSHA256)
		}
		sameInput := ra.Provenance.Seed == rb.Provenance.Seed && ra.Provenance.Sizes == rb.Provenance.Sizes
		for _, name := range outcomeInfo {
			va, oka := ra.Info[name]
			vb, okb := rb.Info[name]
			if !oka || !okb || !sameInput {
				continue
			}
			moved := 0.0
			if va != vb {
				moved = math.Abs(vb-va) / max(math.Abs(va), math.Abs(vb))
			}
			verdict := "exact"
			if (mode == "repeat" && va != vb) || moved > outcomeTolerance {
				verdict = "DIFFERS"
				fail("%s %s: %v then %v on the same input, expected identical", ra.Workload, name, va, vb)
			}
			fmt.Fprintf(w, "%-14s %-34s %14.6g -> %-14.6g %+8.2f%% moved  %s\n", ra.Workload, name, va, vb, moved*100, verdict)
		}
		for _, d := range sp.decls(ra.Trace) {
			va, oka := ra.Metrics[d.Name]
			vb, okb := rb.Metrics[d.Name]
			if !oka && !okb {
				continue // omitted on both: a degraded machine
			}
			if oka != okb {
				fail("%s %s: present in only one file", ra.Workload, d.Name)
				continue
			}
			worse := worsening(d, va.Value, vb.Value)
			if tight, ok := sameInputBound[d.Name]; ok && sameInput && tight < d.Bound {
				d.Bound = tight
			}
			verdict := "info"
			switch {
			case mode == "repeat" && exact(d):
				verdict = "exact"
				if va.Value != vb.Value {
					verdict = "DIFFERS"
					fail("%s %s: %v then %v, expected identical", ra.Workload, d.Name, va.Value, vb.Value)
				}
			case d.Bound > 0:
				verdict = "ok"
				if worse > d.Bound || (mode == "repeat" && -worse > d.Bound) {
					verdict = "OUT OF BOUND"
					fail("%s %s: %.6g -> %.6g moved %+.2f%% against a bound of %g%%", ra.Workload, d.Name, va.Value, vb.Value, worse*100, d.Bound*100)
				}
			}
			fmt.Fprintf(w, "%-14s %-34s %14.6g -> %-14.6g %+8.2f%% worse  %s\n", ra.Workload, d.Name, va.Value, vb.Value, worse*100, verdict)
		}
	}
	return ok
}
