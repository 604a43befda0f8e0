package experiments

import (
	"fmt"
	"math"
	"time"

	"repro/internal/cellular"
	"repro/internal/faults"
	"repro/internal/verus"
)

// This harness is the chaos evaluation: each canned fault plan
// (internal/faults) is run against the hardened Verus, stock Verus, and the
// TCP baselines over a trace-driven cell, and the table reports what the
// outage/handover/loss train cost each protocol and how quickly it came
// back. Trials run through sweep, the seed plan of Figs. 8–10, on
// runner.Map, so serial and parallel renders are byte-identical.

// VerusResilientMaker returns Verus with the §4.2 recovery extensions
// (timeout-epoch ack filtering and post-outage profile relearning) enabled.
func VerusResilientMaker(r float64) Maker {
	cfg := verus.ResilientConfig()
	cfg.R = r
	return verusMaker(fmt.Sprintf("Verus (R=%g) resilient", r), cfg)
}

// faultProtocols are the chaos contenders: the recovery-enabled Verus, the
// stock Verus as its ablation, and the loss-based baselines.
func faultProtocols() []Maker {
	return []Maker{VerusResilientMaker(2), VerusMaker(2), CubicMaker(), NewRenoMaker()}
}

// faultMobility maps a fault scenario to the cellular mobility pattern that
// produces its underlying capacity trace.
func faultMobility(name string) cellular.Scenario {
	if name == faults.ScenarioHighwayHandover {
		return cellular.HighwayDriving
	}
	return cellular.CityDriving
}

// FaultRow is one protocol's outcome under one fault plan.
type FaultRow struct {
	Protocol  string
	Mbps      float64
	DelayMean float64 // seconds, one-way
	Timeouts  int64   // summed across flows and reps
	// RecoverySec is the worst-flow time from the end of the last timed
	// impairment to the first 1 s window with nonzero delivery, averaged
	// across reps. Negative means some flow never resumed; zero with no
	// timed impairments means "not applicable".
	RecoverySec float64
	// Counters totals the fault layer's ledger across reps.
	Counters faults.Counters
}

// FaultScenarioResult is the chaos table for one canned scenario.
type FaultScenarioResult struct {
	Scenario string
	Duration time.Duration
	// LastImpairment is when the last timed event ends (0 for plans that
	// are purely stochastic).
	LastImpairment time.Duration
	Rows           []FaultRow
}

// FaultScenario runs one canned fault plan against the chaos contenders.
func FaultScenario(name string, opts MacroOptions) (FaultScenarioResult, error) {
	plan, err := faults.ByName(name, opts.Duration)
	if err != nil {
		return FaultScenarioResult{}, err
	}
	out := FaultScenarioResult{
		Scenario:       name,
		Duration:       opts.Duration,
		LastImpairment: plan.LastImpairmentEnd(),
	}
	mobility := faultMobility(name)
	protos := faultProtocols()
	results := sweep(opts, []int64{0}, protos, opts.reps(), func(_ int, mk Maker, _ int, seed int64) RunResult {
		tr := cellTrace(cellular.Tech3G, mobility, 25, opts.Duration, seed)
		return TraceRun{
			Trace: tr, Maker: mk, Flows: 4,
			Duration: opts.Duration, Seed: seed, Faults: plan,
			Obs: opts.Obs,
		}.Run()
	})[0]
	for p, mk := range protos {
		reps := results[p]
		row := FaultRow{Protocol: mk.Name}
		row.Mbps, row.DelayMean = meanOverReps(reps)
		var recSum float64
		recovered := true
		for _, res := range reps {
			for _, f := range res.Flows {
				row.Timeouts += f.Timeouts
			}
			if res.Faults != nil {
				row.Counters.Add(*res.Faults)
			}
			if rec := recoveryAfter(res, out.LastImpairment); rec < 0 {
				recovered = false
			} else {
				recSum += rec
			}
		}
		if recovered {
			row.RecoverySec = recSum / float64(len(reps))
		} else {
			row.RecoverySec = -1
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// recoveryAfter returns the worst-flow delay from the end of the last timed
// impairment to the first whole 1 s window with nonzero delivery. Plans with
// no timed events return 0; a flow that never delivers again returns -1.
func recoveryAfter(res RunResult, lastEnd time.Duration) float64 {
	if lastEnd <= 0 {
		return 0
	}
	start := int(math.Ceil(lastEnd.Seconds()))
	worst := 0.0
	for _, windows := range res.PerSecondMbps {
		found := -1.0
		for w := start; w < len(windows); w++ {
			if windows[w] > 0 {
				found = float64(w) - lastEnd.Seconds()
				break
			}
		}
		if found < 0 {
			return -1
		}
		if found > worst {
			worst = found
		}
	}
	return worst
}

// Render prints the chaos table for one scenario.
func (r FaultScenarioResult) Render() string {
	s := fmt.Sprintf("Fault scenario %q over %v (last timed impairment ends %v)\n",
		r.Scenario, r.Duration, r.LastImpairment)
	var rows [][]string
	for _, row := range r.Rows {
		rec := "n/a"
		switch {
		case row.RecoverySec < 0:
			rec = "never"
		case r.LastImpairment > 0:
			rec = fmt.Sprintf("%.1f", row.RecoverySec)
		}
		c := row.Counters
		rows = append(rows, []string{
			row.Protocol,
			fmt.Sprintf("%.2f", row.Mbps),
			fmt.Sprintf("%.0f", row.DelayMean*1000),
			fmt.Sprintf("%d", row.Timeouts),
			rec,
			fmt.Sprintf("%d", c.SendDropped+c.QueueDrained+c.EgressDropped),
			fmt.Sprintf("%d", c.BurstLost),
			fmt.Sprintf("%d", c.Corrupted),
			fmt.Sprintf("%d", c.Duplicated),
			fmt.Sprintf("%d", c.Reordered),
		})
	}
	return s + table([]string{
		"protocol", "tput/flow (Mbps)", "mean delay (ms)", "timeouts",
		"recovery (s)", "blackholed", "burst-lost", "corrupted", "dup", "reorder",
	}, rows)
}
