package experiments

import (
	"fmt"
	"time"

	"repro/internal/cellular"
	"repro/internal/experiments/runner"
	"repro/internal/obs"
	"repro/internal/stats"
)

// MacroOptions scale the §6 macro-evaluation experiments.
type MacroOptions struct {
	// Duration per run (paper: 2 minutes).
	Duration time.Duration
	// Reps averages over repetitions (paper: 5). Values below 1 run one
	// repetition, as Metro defaults its zero options; values above 100 panic,
	// because the sweep key gives each protocol 100 repetition slots. Table 1
	// averages over min(Reps, 5) scenarios, and Fig. 10 runs once.
	Reps int
	Seed int64
	// Parallel is the trial worker count (0 = GOMAXPROCS, 1 = serial).
	// Output is byte-identical at every setting; see runner.
	Parallel int
	// Obs, when non-nil, is shared by every trial: events are labeled by the
	// per-trial derived seed (run) and flow index, so one observer can absorb
	// a whole parallel sweep without perturbing results.
	Obs *obs.Observer
}

// pool returns the trial executor for these options.
func (o MacroOptions) pool() *runner.Pool { return runner.New(o.Parallel) }

// maxReps is the number of repetition slots sweep's key gives each protocol.
const maxReps = 100

// reps returns the repetition count of these options: Reps, or 1 when Reps
// is below 1. It panics above maxReps.
func (o MacroOptions) reps() int {
	if o.Reps > maxReps {
		panic(fmt.Sprintf("experiments: MacroOptions.Reps %d exceeds the limit of %d, past which a repetition shares the next protocol's seed key", o.Reps, maxReps))
	}
	return max(o.Reps, 1)
}

// sweep is the seed plan of the harnesses that put every protocol through
// the same scenarios: Figs. 8–10, Table 1 and the fault tables. It runs
// trial once for every (outer o, protocol p, repetition r) triple on the
// options' worker pool with the key outer[o] + 100·p + r, and returns the
// results indexed [o][p][r]. reps must not exceed maxReps, and outer keys
// must lie at least 100·len(protos) apart.
func sweep[T any](opts MacroOptions, outer []int64, protos []Maker, reps int,
	trial func(o int, mk Maker, r int, seed int64) T) [][][]T {
	var jobs []runner.Job[T]
	for o, key := range outer {
		for p, mk := range protos {
			for r := 0; r < reps; r++ {
				jobs = append(jobs, runner.Job[T]{
					Key: key + int64(maxReps*p+r),
					Run: func(seed int64) T { return trial(o, mk, r, seed) },
				})
			}
		}
	}
	flat := runner.Map(opts.pool(), opts.Seed, jobs)
	out := make([][][]T, len(outer))
	for o := range out {
		for range protos {
			out[o], flat = append(out[o], flat[:reps:reps]), flat[reps:]
		}
	}
	return out
}

// meanOverReps averages one protocol's per-flow mean throughput and delay
// over its repetitions.
func meanOverReps(reps []RunResult) (mbps, delay float64) {
	for _, res := range reps {
		mbps += res.MeanMbps()
		delay += res.MeanDelay()
	}
	n := float64(len(reps))
	return mbps / n, delay / n
}

// bloatBytes sizes the Fig. 8/9 cell buffer. Carriers over-dimension base
// station buffers (the "bufferbloat" of §2: "multi-second delays"); 8 MB at
// a 16 Mbps cell is ~4 s of queue, which is what lets loss-based TCP build
// the order-of-magnitude delay gap the paper reports.
const bloatBytes = 8_000_000

// ProtocolPoint is one protocol's position on a throughput-vs-delay plot.
type ProtocolPoint struct {
	Protocol string
	Mbps     float64
	DelaySec float64
	DelayP95 float64
}

// Figure8Result holds the 3G and LTE throughput-vs-delay comparison of
// paper Fig. 8: Cubic, Vegas, Verus (R=6), and Sprout, nine flows each.
type Figure8Result struct {
	Tech   []string
	Points [][]ProtocolPoint // per tech, per protocol
}

// figure8Protocols are the paper's real-world contenders.
func figure8Protocols() []Maker {
	return []Maker{CubicMaker(), VegasMaker(), VerusMaker(6), SproutMaker()}
}

// Figure8 runs the real-world macro comparison on modeled 3G and LTE cells.
func Figure8(opts MacroOptions) Figure8Result {
	tech, points := macroSweep(opts, figure8Protocols())
	return Figure8Result{Tech: tech, Points: points}
}

// macroSweep runs the Fig. 8/9 setup for each maker on modeled 3G and LTE
// cells: "Three phones each running three <protocol> flows" → nine flows
// sharing the cell, averaged across flows and repetitions. Every (cell,
// maker, repetition) triple is one independent trial on the options' worker
// pool. It returns the cell names and, per cell, one point per maker.
func macroSweep(opts MacroOptions, protos []Maker) (tech []string, points [][]ProtocolPoint) {
	cells := []struct {
		name  string
		tech  cellular.Tech
		total float64
	}{
		{"3G", cellular.Tech3G, 16},
		{"LTE", cellular.TechLTE, 40},
	}
	results := sweep(opts, []int64{0, 1000}, protos, opts.reps(), func(c int, mk Maker, _ int, seed int64) RunResult {
		tr := cellTrace(cells[c].tech, cellular.CityStationary, cells[c].total, opts.Duration, seed)
		return TraceRun{
			Trace: tr, Maker: mk, Flows: 9,
			Duration: opts.Duration, QueueBytes: bloatBytes, Seed: seed,
			Obs: opts.Obs,
		}.Run()
	})
	for c, cell := range cells {
		var row []ProtocolPoint
		for p, mk := range protos {
			reps := results[c][p]
			mbps, delay := meanOverReps(reps)
			var p95 float64
			for _, res := range reps {
				var pp float64
				for _, f := range res.Flows {
					pp += f.DelayP95
				}
				p95 += pp / float64(len(res.Flows))
			}
			row = append(row, ProtocolPoint{
				Protocol: mk.Name, Mbps: mbps, DelaySec: delay, DelayP95: p95 / float64(len(reps)),
			})
		}
		tech = append(tech, cell.name)
		points = append(points, row)
	}
	return tech, points
}

// Render prints Fig. 8 rows.
func (r Figure8Result) Render() string {
	s := "Figure 8: averaged throughput and delay, 9 flows per protocol\n"
	for i, tech := range r.Tech {
		var rows [][]string
		for _, p := range r.Points[i] {
			rows = append(rows, []string{
				p.Protocol,
				fmt.Sprintf("%.2f", p.Mbps),
				fmt.Sprintf("%.0f", p.DelaySec*1000),
				fmt.Sprintf("%.0f", p.DelayP95*1000),
			})
		}
		s += fmt.Sprintf("-- %s --\n", tech)
		s += table([]string{"protocol", "tput/flow (Mbps)", "mean delay (ms)", "p95 delay (ms)"}, rows)
	}
	return s
}

// Figure9Result holds the Verus R-parameter sweep of paper Fig. 9.
type Figure9Result struct {
	Tech   []string
	Points [][]ProtocolPoint
}

// Figure9 repeats the Fig. 8 setup for Verus with R ∈ {2, 4, 6}: "Depending
// on the value of R, the Verus protocol can be tuned to achieve a trade-off
// between a higher throughput or lower delay."
func Figure9(opts MacroOptions) Figure9Result {
	tech, points := macroSweep(opts, []Maker{VerusMaker(2), VerusMaker(4), VerusMaker(6)})
	return Figure9Result{Tech: tech, Points: points}
}

// Render prints Fig. 9 rows.
func (r Figure9Result) Render() string {
	s := "Figure 9: Verus R sweep (throughput/delay trade-off)\n"
	for i, tech := range r.Tech {
		var rows [][]string
		for _, p := range r.Points[i] {
			rows = append(rows, []string{
				p.Protocol, fmt.Sprintf("%.2f", p.Mbps), fmt.Sprintf("%.0f", p.DelaySec*1000),
			})
		}
		s += fmt.Sprintf("-- %s --\n", tech)
		s += table([]string{"protocol", "tput/flow (Mbps)", "mean delay (ms)"}, rows)
	}
	return s
}

// Figure10Result is the trace-driven contention evaluation of paper Fig. 10:
// per-flow (delay, throughput) scatter for three mobility patterns, with 10
// concurrent flows behind the paper's RED queue.
type Figure10Result struct {
	Scenarios []string
	// PerFlow[s][p] lists the per-flow points of protocol p in scenario s.
	PerFlow [][][]ProtocolPoint
	Summary [][]ProtocolPoint
}

// figure10Protocols are the trace-driven contenders.
func figure10Protocols() []Maker {
	return []Maker{CubicMaker(), NewRenoMaker(), VerusMaker(2), VerusMaker(4), VerusMaker(6)}
}

// Figure10 runs 10 flows of each protocol over three mobility scenarios
// through the paper's shared RED queue (3 Mbit min, 9 Mbit max, 10% drop).
func Figure10(opts MacroOptions) Figure10Result {
	out := Figure10Result{}
	scenarios := []cellular.Scenario{
		cellular.CampusPedestrian, cellular.CityDriving, cellular.HighwayDriving,
	}
	protos := figure10Protocols()
	results := sweep(opts, []int64{0, 1000, 2000}, protos, 1, func(s int, mk Maker, _ int, seed int64) RunResult {
		tr := cellTrace(cellular.Tech3G, scenarios[s], 25, opts.Duration, seed)
		return TraceRun{
			Trace: tr, Maker: mk, Flows: 10,
			Duration: opts.Duration, UseRED: true, Seed: seed,
			Obs: opts.Obs,
		}.Run()
	})
	for s, sc := range scenarios {
		out.Scenarios = append(out.Scenarios, sc.Name)
		var perFlow [][]ProtocolPoint
		var summary []ProtocolPoint
		for p, mk := range protos {
			res := results[s][p][0]
			var pts []ProtocolPoint
			for _, f := range res.Flows {
				pts = append(pts, ProtocolPoint{Protocol: mk.Name, Mbps: f.Mbps, DelaySec: f.DelayMean})
			}
			perFlow = append(perFlow, pts)
			summary = append(summary, ProtocolPoint{Protocol: mk.Name, Mbps: res.MeanMbps(), DelaySec: res.MeanDelay()})
		}
		out.PerFlow = append(out.PerFlow, perFlow)
		out.Summary = append(out.Summary, summary)
	}
	return out
}

// Render prints the Fig. 10 summaries.
func (r Figure10Result) Render() string {
	s := "Figure 10: trace-driven contention (10 flows, shared RED queue)\n"
	for si, sc := range r.Scenarios {
		var rows [][]string
		for _, p := range r.Summary[si] {
			rows = append(rows, []string{
				p.Protocol, fmt.Sprintf("%.2f", p.Mbps), fmt.Sprintf("%.0f", p.DelaySec*1000),
			})
		}
		s += fmt.Sprintf("-- %s --\n", sc)
		s += table([]string{"protocol", "tput/flow (Mbps)", "mean delay (ms)"}, rows)
	}
	return s
}

// Table1Result is Jain's fairness index per protocol and user count (paper
// Table 1), averaged across the five trace scenarios.
type Table1Result struct {
	Users     []int
	Protocols []string
	// Index[u][p] is the averaged fairness index.
	Index [][]float64
}

// table1Scenarios are the "five different scenarios" the paper averages
// over.
func table1Scenarios() []cellular.Scenario {
	return []cellular.Scenario{
		cellular.CampusPedestrian, cellular.CityStationary, cellular.CityDriving,
		cellular.HighwayDriving, cellular.ShoppingMall,
	}
}

// Table1 computes 1-second-windowed Jain fairness for Cubic, NewReno, and
// Verus (R=2) at 2..20 concurrent users.
func Table1(opts MacroOptions) Table1Result {
	makers := []Maker{CubicMaker(), NewRenoMaker(), VerusMaker(2)}
	out := Table1Result{Users: []int{2, 5, 10, 15, 20}}
	for _, m := range makers {
		out.Protocols = append(out.Protocols, m.Name)
	}
	scenarios := table1Scenarios()
	var outer []int64
	for _, users := range out.Users {
		outer = append(outer, int64(10000*users))
	}
	results := sweep(opts, outer, makers, min(opts.reps(), len(scenarios)), func(u int, mk Maker, s int, seed int64) float64 {
		tr := cellTrace(cellular.Tech3G, scenarios[s], 25, opts.Duration, seed)
		res := TraceRun{
			Trace: tr, Maker: mk, Flows: out.Users[u],
			Duration: opts.Duration, UseRED: true, Seed: seed,
			Obs: opts.Obs,
		}.Run()
		return stats.WindowedJain(res.PerSecondMbps)
	})
	for u := range out.Users {
		row := make([]float64, len(makers))
		for p, perScenario := range results[u] {
			var acc float64
			for _, jain := range perScenario {
				acc += jain
			}
			row[p] = acc / float64(len(perScenario))
		}
		out.Index = append(out.Index, row)
	}
	return out
}

// Render prints Table 1.
func (r Table1Result) Render() string {
	header := append([]string{"scenario"}, r.Protocols...)
	var rows [][]string
	for ui, users := range r.Users {
		row := []string{fmt.Sprintf("%d Users", users)}
		for pi := range r.Protocols {
			row = append(row, fmt.Sprintf("%.1f%%", r.Index[ui][pi]*100))
		}
		rows = append(rows, row)
	}
	return "Table 1: Jain's fairness index comparison\n" + table(header, rows)
}
