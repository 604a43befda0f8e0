package experiments

import (
	"fmt"
	"time"

	"repro/internal/cellular"
	"repro/internal/experiments/runner"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/verus"
)

// Figure5Result is an example delay profile (paper Fig. 5): the recorded
// (window, delay) points and the interpolated curve.
type Figure5Result struct {
	Windows []int
	Points  []float64 // seconds, per window point
	Curve   []float64 // seconds, sampled at integer windows 1..len(Curve)
}

// Figure5 runs one Verus flow on a 3G channel for 60 s and snapshots its
// delay profile (long enough for slow-start pollution to age out).
func Figure5(seed int64) Figure5Result {
	tr := cellTrace(cellular.Tech3G, cellular.CampusStationary, 10, 60*time.Second, seed)
	v := verus.New(verus.DefaultConfig())
	Dumbbell{
		Trace: tr, Loop: true, QueueBytes: 2_000_000,
		Flows: []netsim.FlowSpec{{Ctrl: v}}, Seed: seed,
	}.Build().Run(60 * time.Second)
	wins, pts, curve := v.ProfileSnapshot()
	return Figure5Result{Windows: wins, Points: pts, Curve: curve}
}

// Render prints a sketch of the profile.
func (r Figure5Result) Render() string {
	s := fmt.Sprintf("Figure 5: Verus delay profile (%d points, curve to W=%d)\n", len(r.Windows), len(r.Curve))
	step := len(r.Curve)/12 + 1
	for w := 0; w < len(r.Curve); w += step {
		s += fmt.Sprintf("  W=%4d  D=%6.1f ms\n", w+1, r.Curve[w]*1000)
	}
	return s
}

// Figure7Result captures the delay-profile evolution (paper Fig. 7): the
// channel's 1-second throughput and profile snapshots taken every 5 s.
type Figure7Result struct {
	// ChannelMbps is the trace capacity per second.
	ChannelMbps []float64
	// SnapshotAt are the snapshot times.
	SnapshotAt []time.Duration
	// Curves[i] is the interpolated profile at SnapshotAt[i].
	Curves [][]float64
	// Steepness[i] is the mean delay slope (ms per window unit) of curve i —
	// the paper's observation is "the smaller the available throughput is,
	// the steeper the delay profile becomes".
	Steepness []float64
}

// Figure7 runs one Verus flow over an LTE channel for the given duration
// (paper: 200 s) snapshotting the profile every 5 s.
func Figure7(d time.Duration, seed int64) Figure7Result {
	m := cellular.NewModel(cellular.Config{
		Tech: cellular.TechLTE, Operator: cellular.OperatorB,
		Scenario: cellular.CityDriving, MeanMbps: 20, Seed: seed,
	})
	tr := m.Trace(d)
	v := verus.New(verus.DefaultConfig())
	db := Dumbbell{Trace: tr, QueueBytes: 2_000_000, Flows: []netsim.FlowSpec{{Ctrl: v}}, Seed: seed}.Build()

	out := Figure7Result{ChannelMbps: tr.WindowedMbps(time.Second)}
	db.Sim.Every(5*time.Second, func() {
		_, _, curve := v.ProfileSnapshot()
		if curve == nil {
			return
		}
		out.SnapshotAt = append(out.SnapshotAt, db.Sim.Now())
		cp := make([]float64, len(curve))
		copy(cp, curve)
		out.Curves = append(out.Curves, cp)
		out.Steepness = append(out.Steepness, steepness(cp))
	})
	db.Run(d)
	return out
}

// steepness returns the mean positive slope of the curve in ms per window.
func steepness(curve []float64) float64 {
	if len(curve) < 2 {
		return 0
	}
	return (curve[len(curve)-1] - curve[0]) * 1000 / float64(len(curve)-1)
}

// Render prints the evolution summary.
func (r Figure7Result) Render() string {
	s := fmt.Sprintf("Figure 7: delay-profile evolution (%d snapshots)\n", len(r.Curves))
	for i, at := range r.SnapshotAt {
		sec := int(at / time.Second)
		capMbps := 0.0
		if sec < len(r.ChannelMbps) {
			capMbps = r.ChannelMbps[sec]
		}
		if i%4 == 0 {
			s += fmt.Sprintf("  t=%4ds channel=%5.1f Mbps curve: %d windows, slope %.2f ms/W\n",
				sec, capMbps, len(r.Curves[i]), r.Steepness[i])
		}
	}
	return s
}

// SensitivityResult is the §5.3 parameter study: throughput and delay as
// functions of ε, the profile update interval, and the δ pair.
type SensitivityResult struct {
	Rows []SensitivityRow
}

// SensitivityRow is one parameter setting's outcome.
type SensitivityRow struct {
	Param   string
	Value   string
	Mbps    float64
	DelayMs float64
}

// Sensitivity sweeps ε ∈ {2,5,10,20,50 ms}, update interval ∈
// {0.25,0.5,1,2,5 s}, and δ pairs, one Verus flow on a 3G channel each.
// Every parameter setting is one trial on a pool of `parallel` workers
// (0 = GOMAXPROCS, 1 = serial); all trials share one key so each setting
// faces the identical channel, as the sweep requires. A non-nil o attaches
// the observability layer to every trial.
func Sensitivity(d time.Duration, seed int64, parallel int, o *obs.Observer) SensitivityResult {
	// One trace, generated from the shared trial seed, drives every setting.
	// Trials only read it, so sharing it across workers is safe.
	tr := cellTrace(cellular.Tech3G, cellular.CampusPedestrian, 10, d, runner.DeriveSeed(seed, 0))
	type setting struct {
		param, value string
		mut          func(*verus.Config)
	}
	var settings []setting
	for _, eps := range []time.Duration{2, 5, 10, 20, 50} {
		e := eps * time.Millisecond
		settings = append(settings, setting{"epsilon", e.String(),
			func(c *verus.Config) { c.Epoch = e }})
	}
	for _, ui := range []time.Duration{250, 500, 1000, 2000, 5000} {
		u := ui * time.Millisecond
		settings = append(settings, setting{"update-interval", u.String(),
			func(c *verus.Config) { c.ProfileUpdateEvery = u }})
	}
	for _, dd := range [][2]time.Duration{
		{time.Millisecond, time.Millisecond},
		{time.Millisecond, 2 * time.Millisecond},
		{2 * time.Millisecond, 2 * time.Millisecond},
		{time.Millisecond, 4 * time.Millisecond},
	} {
		d1, d2 := dd[0], dd[1]
		settings = append(settings, setting{"delta", fmt.Sprintf("δ1=%v δ2=%v", d1, d2),
			func(c *verus.Config) { c.Delta1, c.Delta2 = d1, d2 }})
	}
	var jobs []runner.Job[SensitivityRow]
	for _, st := range settings {
		jobs = append(jobs, runner.Job[SensitivityRow]{
			Key: 0,
			Run: func(trialSeed int64) SensitivityRow {
				cfg := verus.DefaultConfig()
				st.mut(&cfg)
				mk := verusMaker("verus", cfg)
				res := TraceRun{Trace: tr, Maker: mk, Flows: 1, Duration: d,
					QueueBytes: 2_000_000, Seed: trialSeed, Obs: o}.Run()
				return SensitivityRow{st.param, st.value, res.MeanMbps(), res.MeanDelay() * 1000}
			},
		})
	}
	return SensitivityResult{Rows: runner.Map(runner.New(parallel), seed, jobs)}
}

// Render prints the sensitivity table.
func (r SensitivityResult) Render() string {
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Param, row.Value,
			fmt.Sprintf("%.2f", row.Mbps), fmt.Sprintf("%.0f", row.DelayMs),
		})
	}
	return "§5.3 parameter sensitivity (1 Verus flow, 3G pedestrian channel)\n" +
		table([]string{"parameter", "value", "tput (Mbps)", "delay (ms)"}, rows)
}
