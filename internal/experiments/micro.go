package experiments

import (
	"fmt"
	"math"
	"time"

	"repro/internal/cellular"
	"repro/internal/experiments/runner"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/stats"
)

// MicroOptions scale the §7 micro-evaluations.
type MicroOptions struct {
	Duration time.Duration
	Seed     int64
	// Parallel is the trial worker count (0 = GOMAXPROCS, 1 = serial).
	// Output is byte-identical at every setting; see runner.
	Parallel int
	// Obs, when non-nil, is shared by every trial, as in MacroOptions.
	Obs *obs.Observer
}

// pool returns the trial executor for these options.
func (o MicroOptions) pool() *runner.Pool { return runner.New(o.Parallel) }

// Figure11Result holds the rapidly-changing-network comparison.
type Figure11Result struct {
	Scenario  string
	Protocols []string
	MeanMbps  []float64
	DelayMs   []float64
	// Timeline[p] is protocol p's 1-second throughput series.
	Timeline [][]float64
	// DelaySeries[p] is protocol p's 1-second mean delay series (seconds).
	DelaySeries [][]float64
	// Capacity is the link capacity per 5-second segment, Mbps.
	Capacity []float64
}

// figure11Mutator re-draws l's capacity, RTT, and loss from the given ranges,
// deterministically from seed — the paper's §7 "every five seconds the whole
// network parameters ... are changed".
func figure11Mutator(l *netsim.FixedLink, seed int64, lowMbps, highMbps float64, capacity *[]float64) func() {
	rng := runner.NewRand(seed)
	return func() {
		rate := lowMbps + rng.Float64()*(highMbps-lowMbps)
		rtt := time.Duration(10+rng.Float64()*90) * time.Millisecond
		loss := rng.Float64() * 0.01
		l.SetRateMbps(rate)
		l.SetPropDelay(rtt / 2)
		l.SetLossProb(loss)
		*capacity = append(*capacity, rate)
	}
}

// Figure11 runs Scenario I (10-100 Mbps; Verus, Cubic, Vegas, Sprout) or
// Scenario II (2-20 Mbps; Verus vs Sprout) depending on scenarioII.
func Figure11(opts MicroOptions, scenarioII bool) Figure11Result {
	out := Figure11Result{}
	var makers []Maker
	lo, hi := 10.0, 100.0
	if scenarioII {
		out.Scenario = "II (2-20 Mbps)"
		makers = []Maker{VerusMaker(2), SproutMaker()}
		lo, hi = 2, 20
	} else {
		out.Scenario = "I (10-100 Mbps)"
		makers = []Maker{VerusMaker(2), CubicMaker(), VegasMaker(), SproutMaker()}
	}
	type trial struct {
		res      RunResult
		capacity []float64
	}
	var jobs []runner.Job[trial]
	for _, mk := range makers {
		jobs = append(jobs, runner.Job[trial]{
			// Every protocol shares key 0: the identical derived seed means
			// each one replays the identical parameter path.
			Key: 0,
			Run: func(seed int64) trial {
				var capSeries []float64
				d := Dumbbell{
					RateMbps: lo, QueueBytes: 2_000_000,
					Flows: []netsim.FlowSpec{{Ctrl: mk.New()}}, Seed: seed, Obs: opts.Obs,
				}.run(opts.Duration, func(d *netsim.Dumbbell) {
					d.Sim.Every(5*time.Second, figure11Mutator(d.Link.(*netsim.FixedLink), seed, lo, hi, &capSeries))
				})
				return trial{res: collect(d, opts.Duration), capacity: capSeries}
			},
		})
	}
	results := runner.Map(opts.pool(), opts.Seed, jobs)
	for i, mk := range makers {
		res := results[i].res
		out.Protocols = append(out.Protocols, mk.Name)
		out.MeanMbps = append(out.MeanMbps, res.Flows[0].Mbps)
		out.DelayMs = append(out.DelayMs, res.Flows[0].DelayMean*1000)
		out.Timeline = append(out.Timeline, res.PerSecondMbps[0])
		out.DelaySeries = append(out.DelaySeries, res.PerSecondDelay[0])
		if out.Capacity == nil {
			out.Capacity = results[i].capacity
		}
	}
	return out
}

// Render prints the Fig. 11 summary.
func (r Figure11Result) Render() string {
	var rows [][]string
	for i, p := range r.Protocols {
		rows = append(rows, []string{
			p, fmt.Sprintf("%.2f", r.MeanMbps[i]), fmt.Sprintf("%.0f", r.DelayMs[i]),
		})
	}
	var capMean float64
	for _, c := range r.Capacity {
		capMean += c
	}
	if len(r.Capacity) > 0 {
		capMean /= float64(len(r.Capacity))
	}
	return fmt.Sprintf("Figure 11, Scenario %s: rapidly changing network (mean capacity %.1f Mbps)\n", r.Scenario, capMean) +
		table([]string{"protocol", "mean tput (Mbps)", "mean delay (ms)"}, rows)
}

// Figure12Result is the newly-arriving-flows experiment: seven Verus flows
// joining a 90 Mbps link every 30 s.
type Figure12Result struct {
	// Timeline[f] is flow f's 1-second throughput series.
	Timeline [][]float64
	// FinalShare[f] is flow f's mean Mbps over the last 30 s.
	FinalShare []float64
	// JainAllActive is the fairness index over the period when all flows run.
	JainAllActive float64
	// FirstFlowAloneMbps is flow 0's rate before others join.
	FirstFlowAloneMbps float64
}

// Figure12 starts a new Verus flow every 30 seconds on a 90 Mbps bottleneck.
func Figure12(opts MicroOptions) Figure12Result {
	const flows = 7
	stagger := 30 * time.Second
	dur := opts.Duration
	if min := stagger*time.Duration(flows) + 20*time.Second; dur < min {
		dur = min
	}
	res := runner.Go(opts.pool(), opts.Seed, 0, func(seed int64) RunResult {
		specs := make([]netsim.FlowSpec, flows)
		for i := range specs {
			specs[i] = netsim.FlowSpec{Ctrl: VerusMaker(2).New(), Start: time.Duration(i) * stagger}
		}
		return Dumbbell{RateMbps: 90, QueueBytes: 2_000_000, Flows: specs, Seed: seed, Obs: opts.Obs}.Run(dur)
	})

	out := Figure12Result{Timeline: res.PerSecondMbps}
	lastStart := int((time.Duration(flows-1) * stagger) / time.Second)
	horizonSec := int(dur / time.Second)
	var active [][]float64
	for f := 0; f < flows; f++ {
		series := res.PerSecondMbps[f]
		var sum float64
		var n int
		for w := horizonSec - 30; w < horizonSec && w < len(series); w++ {
			if w >= 0 {
				sum += series[w]
				n++
			}
		}
		if n > 0 {
			out.FinalShare = append(out.FinalShare, sum/float64(n))
		} else {
			out.FinalShare = append(out.FinalShare, 0)
		}
		if lastStart+5 < len(series) {
			active = append(active, series[lastStart+5:])
		}
	}
	out.JainAllActive = stats.WindowedJain(active)
	if len(res.PerSecondMbps[0]) > 25 {
		var s float64
		for _, v := range res.PerSecondMbps[0][5:25] {
			s += v
		}
		out.FirstFlowAloneMbps = s / 20
	}
	return out
}

// Render prints Fig. 12.
func (r Figure12Result) Render() string {
	s := fmt.Sprintf("Figure 12: Verus intra-fairness, staggered joins on 90 Mbps\n"+
		"  flow 0 alone: %.1f Mbps; Jain (all active): %.3f\n  final shares (Mbps):",
		r.FirstFlowAloneMbps, r.JainAllActive)
	for _, v := range r.FinalShare {
		s += fmt.Sprintf(" %.1f", v)
	}
	return s + "\n"
}

// Figure13Result is the RTT-fairness experiment: three Verus flows with
// 20/50/100 ms RTTs on 60 Mbps.
type Figure13Result struct {
	RTTs     []time.Duration
	MeanMbps []float64
	// MaxMinRatio is max/min of the three rates — 1.0 is RTT-independence.
	MaxMinRatio float64
}

// Figure13 runs the varying-RTT experiment.
func Figure13(opts MicroOptions) Figure13Result {
	rtts := []time.Duration{20 * time.Millisecond, 50 * time.Millisecond, 100 * time.Millisecond}
	res := runner.Go(opts.pool(), opts.Seed, 0, func(seed int64) RunResult {
		return figure13Dumbbell(rtts, seed, opts.Obs).Run(opts.Duration)
	})
	out := Figure13Result{RTTs: rtts}
	lo, hi := math.Inf(1), 0.0
	for _, f := range res.Flows {
		out.MeanMbps = append(out.MeanMbps, f.Mbps)
		lo = math.Min(lo, f.Mbps)
		hi = math.Max(hi, f.Mbps)
	}
	if lo > 0 {
		out.MaxMinRatio = hi / lo
	}
	return out
}

// figure13Dumbbell gives each Verus flow the base RTT it is labeled with on
// the shared 60 Mbps link. The forward leg is that link's 10 ms, so each
// flow's reverse leg carries the rest of its RTT.
func figure13Dumbbell(rtts []time.Duration, seed int64, o *obs.Observer) Dumbbell {
	const forward = 10 * time.Millisecond
	specs := make([]netsim.FlowSpec, len(rtts))
	for i, r := range rtts {
		specs[i] = netsim.FlowSpec{Ctrl: VerusMaker(2).New(), AckDelay: r - forward}
	}
	return Dumbbell{RateMbps: 60, QueueBytes: 2_000_000, OneWay: forward, Flows: specs, Seed: seed, Obs: o}
}

// Render prints Fig. 13.
func (r Figure13Result) Render() string {
	var rows [][]string
	for i := range r.RTTs {
		rows = append(rows, []string{r.RTTs[i].String(), fmt.Sprintf("%.1f", r.MeanMbps[i])})
	}
	return "Figure 13: Verus with mixed RTTs on 60 Mbps (max/min = " +
		fmt.Sprintf("%.2f)\n", r.MaxMinRatio) +
		table([]string{"RTT", "tput (Mbps)"}, rows)
}

// Figure14Result is the TCP-friendliness experiment: 3 Verus then 3 Cubic
// flows joining a 60 Mbps link every 30 s.
type Figure14Result struct {
	VerusMbps []float64
	CubicMbps []float64
	// ShareVerus is the Verus aggregate's fraction of total goodput over
	// the period when all six flows are active.
	ShareVerus float64
}

// Figure14 runs the Verus-vs-Cubic coexistence experiment.
func Figure14(opts MicroOptions) Figure14Result {
	stagger := 30 * time.Second
	dur := opts.Duration
	if min := 7 * stagger; dur < min {
		dur = min
	}
	res := runner.Go(opts.pool(), opts.Seed, 0, func(seed int64) RunResult {
		var specs []netsim.FlowSpec
		for i, mk := range []Maker{VerusMaker(2), VerusMaker(2), VerusMaker(2), CubicMaker(), CubicMaker(), CubicMaker()} {
			specs = append(specs, netsim.FlowSpec{Ctrl: mk.New(), Start: time.Duration(i) * stagger})
		}
		return Dumbbell{RateMbps: 60, QueueBytes: 1_000_000, Flows: specs, Seed: seed, Obs: opts.Obs}.Run(dur)
	})
	out := Figure14Result{}
	allActive := int((5*stagger + 5*time.Second) / time.Second)
	var verusSum, cubicSum float64
	for i, series := range res.PerSecondMbps {
		var sum float64
		var n int
		for w := allActive; w < len(series); w++ {
			sum += series[w]
			n++
		}
		mean := 0.0
		if n > 0 {
			mean = sum / float64(n)
		}
		if i < 3 {
			out.VerusMbps = append(out.VerusMbps, mean)
			verusSum += mean
		} else {
			out.CubicMbps = append(out.CubicMbps, mean)
			cubicSum += mean
		}
	}
	if verusSum+cubicSum > 0 {
		out.ShareVerus = verusSum / (verusSum + cubicSum)
	}
	return out
}

// Render prints Fig. 14.
func (r Figure14Result) Render() string {
	return fmt.Sprintf("Figure 14: 3 Verus + 3 Cubic on 60 Mbps (all-active period)\n"+
		"  Verus flows (Mbps): %.1f %.1f %.1f\n  Cubic flows (Mbps): %.1f %.1f %.1f\n"+
		"  Verus aggregate share: %.2f\n",
		r.VerusMbps[0], r.VerusMbps[1], r.VerusMbps[2],
		r.CubicMbps[0], r.CubicMbps[1], r.CubicMbps[2], r.ShareVerus)
}

// Figure15Result compares Verus with an updating vs static delay profile
// across the five trace scenarios.
type Figure15Result struct {
	Scenarios                  []string
	UpdatingMbps, StaticMbps   []float64
	UpdatingDelay, StaticDelay []float64 // seconds
}

// Figure15 runs the delay-profile ablation (paper Fig. 15) on the five §5.3
// trace scenarios with R = 2.
func Figure15(opts MicroOptions) Figure15Result {
	out := Figure15Result{}
	scenarios := table1Scenarios()
	var jobs []runner.Job[RunResult]
	for si, sc := range scenarios {
		for _, mk := range []Maker{VerusMaker(2), VerusStaticMaker(2)} {
			jobs = append(jobs, runner.Job[RunResult]{
				// Both variants share the scenario's key: the ablation needs
				// the static profile to face the identical channel.
				Key: int64(si),
				Run: func(seed int64) RunResult {
					tr := cellTrace(cellular.Tech3G, sc, 12, opts.Duration, seed)
					return TraceRun{Trace: tr, Maker: mk, Flows: 1,
						Duration: opts.Duration, QueueBytes: 2_000_000, Seed: seed,
						Obs: opts.Obs}.Run()
				},
			})
		}
	}
	results := runner.Map(opts.pool(), opts.Seed, jobs)
	for si, sc := range scenarios {
		upd, sta := results[2*si], results[2*si+1]
		out.Scenarios = append(out.Scenarios, sc.Name)
		out.UpdatingMbps = append(out.UpdatingMbps, upd.MeanMbps())
		out.StaticMbps = append(out.StaticMbps, sta.MeanMbps())
		out.UpdatingDelay = append(out.UpdatingDelay, upd.MeanDelay())
		out.StaticDelay = append(out.StaticDelay, sta.MeanDelay())
	}
	return out
}

// Render prints Fig. 15.
func (r Figure15Result) Render() string {
	var rows [][]string
	for i, sc := range r.Scenarios {
		rows = append(rows, []string{
			sc,
			fmt.Sprintf("%.2f @ %.0fms", r.UpdatingMbps[i], r.UpdatingDelay[i]*1000),
			fmt.Sprintf("%.2f @ %.0fms", r.StaticMbps[i], r.StaticDelay[i]*1000),
		})
	}
	return "Figure 15: Verus (R=2) with updating vs static delay profile\n" +
		table([]string{"scenario", "updating", "static"}, rows)
}
