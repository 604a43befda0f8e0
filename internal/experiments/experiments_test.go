package experiments

import (
	"strings"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/faults"
)

// These tests run scaled-down versions of each harness and assert the
// paper's qualitative claims — the "shape" targets of
// DESIGN.md §Experiments. They are the regression net for the reproduction
// itself.

func TestFigure1BurstsVisible(t *testing.T) {
	r := Figure1(1)
	if len(r.Times) < 50 {
		t.Fatalf("too few packets in window: %d", len(r.Times))
	}
	if r.Bursts < 10 {
		t.Fatalf("bursts = %d; channel not bursty", r.Bursts)
	}
	// Delays must be moderate (no bufferbloat in this setup).
	for _, d := range r.Delays {
		if d > 300*time.Millisecond {
			t.Fatalf("delay %v too high for the Fig. 1 regime", d)
		}
	}
	if !strings.Contains(r.Render(), "Figure 1") {
		t.Error("render missing title")
	}
}

func TestFigure2LTESmallerBursts(t *testing.T) {
	r := Figure2(45*time.Second, 2, 0)
	if len(r.Labels) != 4 {
		t.Fatalf("labels = %v", r.Labels)
	}
	// 3G rows are 0,1; LTE rows are 2,3.
	mean3g := (r.MeanBurstBytes[0] + r.MeanBurstBytes[1]) / 2
	meanLTE := (r.MeanBurstBytes[2] + r.MeanBurstBytes[3]) / 2
	if meanLTE >= mean3g {
		t.Errorf("LTE bursts (%.0f B) should be smaller than 3G (%.0f B)", meanLTE, mean3g)
	}
	gap3g := (r.MeanGapMs[0] + r.MeanGapMs[1]) / 2
	gapLTE := (r.MeanGapMs[2] + r.MeanGapMs[3]) / 2
	if gapLTE >= gap3g {
		t.Errorf("LTE bursts (%.2f ms apart) should be more frequent than 3G (%.2f ms)", gapLTE, gap3g)
	}
}

func TestFigure3CompetitionRaisesDelay(t *testing.T) {
	r := Figure3(3, 0, nil)
	for i := range r.Rates {
		if r.DelayOnMs[i] <= r.DelayOffMs[i] {
			t.Errorf("rate %g: ON delay %.1f <= OFF delay %.1f", r.Rates[i], r.DelayOnMs[i], r.DelayOffMs[i])
		}
	}
	// The effect must grow as user 1's own rate approaches saturation:
	// 10 Mbps user must suffer more than the 1 Mbps user when user 2 is ON.
	if r.DelayOnMs[2] <= r.DelayOnMs[0] {
		t.Errorf("saturation effect missing: ON delays %v", r.DelayOnMs)
	}
}

func TestFigure4ShorterWindowsMoreVariable(t *testing.T) {
	r := Figure4(4)
	if len(r.Window100) == 0 || len(r.Window20) == 0 {
		t.Fatal("empty series")
	}
	if r.CV20 <= r.CV100 {
		t.Errorf("20 ms CV (%.2f) should exceed 100 ms CV (%.2f)", r.CV20, r.CV100)
	}
}

func TestPredictorStudyChannelResistsPrediction(t *testing.T) {
	r := PredictorStudy(5)
	if len(r.Results) != 3 {
		t.Fatalf("results = %d", len(r.Results))
	}
	for _, res := range r.Results {
		if res.NRMSE < 0.6 {
			t.Errorf("%s: NRMSE %.2f — channel too predictable for §3's claim", res.Name, res.NRMSE)
		}
	}
}

func TestFigure5ProfileShape(t *testing.T) {
	r := Figure5(6)
	if len(r.Windows) < 10 || len(r.Curve) < 10 {
		t.Fatalf("profile too small: %d points, curve %d", len(r.Windows), len(r.Curve))
	}
	// The profile must generally rise: delay at the top quarter of windows
	// above delay at the bottom quarter.
	q := len(r.Curve) / 4
	if q > 0 && r.Curve[len(r.Curve)-1-q/2] <= r.Curve[q/2] {
		t.Errorf("profile not increasing: head %.1f ms, tail %.1f ms",
			r.Curve[q/2]*1000, r.Curve[len(r.Curve)-1-q/2]*1000)
	}
}

func TestFigure7ProfileEvolves(t *testing.T) {
	r := Figure7(60*time.Second, 7)
	if len(r.Curves) < 5 {
		t.Fatalf("snapshots = %d", len(r.Curves))
	}
	// The curve must actually change over time (the Fig. 15 mechanism).
	changed := false
	for i := 1; i < len(r.Steepness); i++ {
		if r.Steepness[i] != r.Steepness[0] {
			changed = true
		}
	}
	if !changed {
		t.Error("profile never evolved")
	}
}

func TestFigure8HeadlineShape(t *testing.T) {
	opts := MacroOptions{Duration: 40 * time.Second, Reps: 1, Seed: 42}
	// The paper's claim is about rates "averaged across flows and
	// repetitions"; a single repetition is one trace draw and too noisy for
	// the cross-protocol assertions below, so use the paper's rep count.
	opts.Reps = 5
	r := Figure8(opts)
	if len(r.Tech) != 2 {
		t.Fatalf("techs = %v", r.Tech)
	}
	for ti, tech := range r.Tech {
		byName := map[string]ProtocolPoint{}
		for _, p := range r.Points[ti] {
			byName[p.Protocol] = p
		}
		cubic := byName["TCP Cubic"]
		verus := byName["Verus (R=6)"]
		sprout := byName["Sprout"]
		// The headline: order-of-magnitude delay reduction vs Cubic at
		// comparable throughput (allow 4x at this reduced scale).
		if verus.DelaySec*4 > cubic.DelaySec {
			t.Errorf("%s: Verus delay %.0f ms not ≪ Cubic %.0f ms",
				tech, verus.DelaySec*1000, cubic.DelaySec*1000)
		}
		if verus.Mbps < 0.5*cubic.Mbps {
			t.Errorf("%s: Verus tput %.2f not comparable to Cubic %.2f",
				tech, verus.Mbps, cubic.Mbps)
		}
		if sprout.Mbps > verus.Mbps*1.2 {
			t.Errorf("%s: Sprout tput %.2f should not exceed Verus %.2f",
				tech, sprout.Mbps, verus.Mbps)
		}
	}
}

func TestFigure9RTradeoff(t *testing.T) {
	opts := MacroOptions{Duration: 40 * time.Second, Reps: 1, Seed: 42}
	r := Figure9(opts)
	for ti, tech := range r.Tech {
		pts := r.Points[ti]
		// R=6 must trade higher delay than R=2; throughput should not
		// collapse with higher R.
		if pts[2].DelaySec <= pts[0].DelaySec {
			t.Errorf("%s: R=6 delay %.0f ms <= R=2 delay %.0f ms",
				tech, pts[2].DelaySec*1000, pts[0].DelaySec*1000)
		}
	}
}

func TestFigure10VerusLowDelayUnderContention(t *testing.T) {
	opts := MacroOptions{Duration: 30 * time.Second, Reps: 1, Seed: 42}
	r := Figure10(opts)
	for si, sc := range r.Scenarios {
		byName := map[string]ProtocolPoint{}
		for _, p := range r.Summary[si] {
			byName[p.Protocol] = p
		}
		cubic := byName["TCP Cubic"]
		verus := byName["Verus (R=2)"]
		if verus.DelaySec >= cubic.DelaySec {
			t.Errorf("%s: Verus delay %.0f ms >= Cubic %.0f ms",
				sc, verus.DelaySec*1000, cubic.DelaySec*1000)
		}
	}
}

func TestTable1FairnessBounds(t *testing.T) {
	r := Table1(MacroOptions{Duration: 30 * time.Second, Reps: 2, Seed: 42}) // two scenarios
	if len(r.Users) != 5 || len(r.Protocols) != 3 {
		t.Fatalf("shape: %v users, %v protocols", r.Users, r.Protocols)
	}
	for ui := range r.Users {
		for pi := range r.Protocols {
			v := r.Index[ui][pi]
			if v < 0 || v > 1 {
				t.Errorf("index out of range: %v", v)
			}
		}
	}
	// At 20 users, Verus must stay reasonably fair (paper: 78.6%).
	verusAt20 := r.Index[4][2]
	if verusAt20 < 0.5 {
		t.Errorf("Verus fairness at 20 users = %.2f, want reasonable", verusAt20)
	}
}

func TestFigure11VerusBeatsSproutWhenRapid(t *testing.T) {
	opts := MicroOptions{Duration: 90 * time.Second, Seed: 7}
	r := Figure11(opts, true) // Scenario II
	verus, sprout := r.MeanMbps[0], r.MeanMbps[1]
	if verus <= sprout {
		t.Errorf("Scenario II: Verus %.2f Mbps should exceed Sprout %.2f", verus, sprout)
	}
}

func TestFigure11ScenarioICapBindsSprout(t *testing.T) {
	opts := MicroOptions{Duration: 120 * time.Second, Seed: 7}
	r := Figure11(opts, false)
	byName := map[string]float64{}
	for i, p := range r.Protocols {
		byName[p] = r.MeanMbps[i]
	}
	if byName["Sprout"] > 19 {
		t.Errorf("Sprout %.1f Mbps exceeds its 18 Mbps cap", byName["Sprout"])
	}
	if byName["Verus (R=2)"] < byName["Sprout"]*0.95 {
		t.Errorf("Verus (%.1f) should at least match capped Sprout (%.1f)",
			byName["Verus (R=2)"], byName["Sprout"])
	}
}

func TestFigure12SharesConverge(t *testing.T) {
	opts := MicroOptions{Duration: 60 * time.Second, Seed: 7}
	r := Figure12(opts)
	if r.FirstFlowAloneMbps < 40 {
		t.Errorf("lone flow only %.1f Mbps of 90", r.FirstFlowAloneMbps)
	}
	// Known deviation from the paper (see EXPERIMENTS.md): convergence of
	// newly arriving flows is slower than published; assert no collapse.
	if r.JainAllActive < 0.25 {
		t.Errorf("Jain with all active = %.3f", r.JainAllActive)
	}
}

func TestFigure13RTTIndependenceApprox(t *testing.T) {
	opts := MicroOptions{Duration: 120 * time.Second, Seed: 7}
	r := Figure13(opts)
	// Known deviation from the paper (see EXPERIMENTS.md): our reproduction
	// does not achieve the published RTT-independence; assert only that the
	// link is used and every flow stays alive.
	var total float64
	for i, m := range r.MeanMbps {
		total += m
		if m < 0.5 {
			t.Errorf("flow with RTT %v starved: %.1f Mbps", r.RTTs[i], m)
		}
	}
	if total < 25 {
		t.Errorf("aggregate %.1f Mbps of 60; link badly underused", total)
	}
}

// minRTT records the smallest RTT sample its controller is handed.
type minRTT struct {
	cc.Controller
	min time.Duration
}

func (m *minRTT) OnAck(now time.Duration, a cc.AckSample) {
	if m.min == 0 || a.RTT < m.min {
		m.min = a.RTT
	}
	m.Controller.OnAck(now, a)
}

// TestFigure13RunsLabeledRTTs checks that each Fig. 13 flow runs the RTT it
// is labeled with: the smallest RTT its controller sees is its propagation
// RTT plus one serialization, within 1 ms of the label.
func TestFigure13RunsLabeledRTTs(t *testing.T) {
	rtts := Figure13(MicroOptions{Duration: time.Second, Seed: 7, Parallel: 1}).RTTs
	spec := figure13Dumbbell(rtts, 7, nil)
	for i := range spec.Flows {
		spec.Flows[i].Ctrl = &minRTT{Controller: spec.Flows[i].Ctrl}
	}
	spec.Run(5 * time.Second)
	for i, f := range spec.Flows {
		got := f.Ctrl.(*minRTT).min
		if d := got - rtts[i]; d < 0 || d > time.Millisecond {
			t.Errorf("flow labeled %v: smallest RTT sample %v", rtts[i], got)
		}
	}
}

func TestFigure14NoStarvation(t *testing.T) {
	opts := MicroOptions{Duration: 280 * time.Second, Seed: 7} // give the rolling D_min time to adapt
	r := Figure14(opts)
	// Known deviation from the paper (see EXPERIMENTS.md): against deep
	// Cubic-filled buffers our Verus keeps far less than the published
	// equal share. Assert the link is not wasted and Verus is not fully
	// dead once its delay floor has adapted.
	var total float64
	for _, v := range r.VerusMbps {
		total += v
	}
	for _, c := range r.CubicMbps {
		total += c
	}
	if total < 30 {
		t.Errorf("aggregate %.1f Mbps of 60", total)
	}
}

func TestFigure15UpdatingBeatsStatic(t *testing.T) {
	opts := MicroOptions{Duration: 60 * time.Second, Seed: 7}
	r := Figure15(opts)
	var updWins int
	for i := range r.Scenarios {
		// "Better" = higher throughput or lower delay.
		if r.UpdatingMbps[i] >= r.StaticMbps[i] || r.UpdatingDelay[i] <= r.StaticDelay[i] {
			updWins++
		}
	}
	if updWins < 3 {
		t.Errorf("updating profile wins only %d/%d scenarios", updWins, len(r.Scenarios))
	}
}

func TestSensitivityRowsComplete(t *testing.T) {
	r := Sensitivity(20*time.Second, 9, 0, nil)
	if len(r.Rows) != 14 {
		t.Fatalf("rows = %d, want 14", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Mbps <= 0 {
			t.Errorf("%s=%s produced no throughput", row.Param, row.Value)
		}
	}
	if !strings.Contains(r.Render(), "epsilon") {
		t.Error("render missing parameter rows")
	}
}

func TestRendersNonEmpty(t *testing.T) {
	// Smoke-check every Render path not covered above.
	opts := MacroOptions{Duration: 15 * time.Second, Reps: 1, Seed: 42}
	for _, s := range []string{
		Figure8(opts).Render(),
		Figure9(opts).Render(),
	} {
		if len(s) < 40 {
			t.Errorf("render too short: %q", s)
		}
	}
}

// TestZeroRepsRunsOnce checks that a zero MacroOptions.Reps runs one
// repetition, as Metro defaults its zero options, instead of averaging over
// none and rendering NaN in every cell.
func TestZeroRepsRunsOnce(t *testing.T) {
	render := func(reps int) string {
		opts := MacroOptions{Duration: 2 * time.Second, Reps: reps, Seed: 1, Parallel: 1}
		s := Figure8(opts).Render() + Figure9(opts).Render() + Table1(opts).Render()
		opts.Duration = 8 * time.Second // the tunnel plan's outages overlap below ≈5.7 s
		for _, name := range faults.Names() {
			r, err := FaultScenario(name, opts)
			if err != nil {
				t.Fatal(err)
			}
			s += r.Render()
		}
		return s
	}
	zero, one := render(0), render(1)
	if strings.Contains(zero, "NaN") {
		t.Errorf("zero-Reps render contains NaN:\n%s", zero)
	}
	if zero != one {
		t.Errorf("zero-Reps render differs from Reps 1:\n%s\nwant:\n%s", zero, one)
	}
}

// TestShortTunnelOutageErrors checks that a run too short for the tunnel
// plan's two outages to fit apart is refused by FaultScenario with the
// plan's validation error, before any trial runs, instead of panicking in
// faults.Wrap inside one.
func TestShortTunnelOutageErrors(t *testing.T) {
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("FaultScenario panicked: %v", r)
		}
	}()
	_, err := FaultScenario(faults.ScenarioTunnelOutage, MacroOptions{Duration: 2 * time.Second, Reps: 1})
	if err == nil || !strings.Contains(err.Error(), "overlaps") {
		t.Errorf("a 2 s tunnel-outage run returned error %v, want the outages' overlap", err)
	}
}

// TestRepsPastKeySpacePanics checks that more repetitions than the sweep
// key's slots per protocol panic with the limit instead of sharing a seed
// with the next protocol's first repetition.
func TestRepsPastKeySpacePanics(t *testing.T) {
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "limit of 100") {
			t.Errorf("Reps 101 recovered %q, want a panic naming the limit of 100", msg)
		}
	}()
	Figure8(MacroOptions{Duration: time.Second, Reps: maxReps + 1, Seed: 1})
}
