package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/cellular"
	"repro/internal/experiments/runner"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/predictor"
	"repro/internal/stats"
)

// Figure1Result is the burst-arrival delay scatter of paper Fig. 1: per-
// packet one-way delays over a short window of an LTE 10 Mbps downlink.
type Figure1Result struct {
	Times  []time.Duration
	Delays []time.Duration
	// Bursts is the number of distinct bursts in the window (arrivals
	// separated by more than 1 ms).
	Bursts int
}

// Figure1 saturates an LTE 10 Mbps channel with a CBR flow and records
// packet arrival times and delays over a 250 ms window mid-run.
func Figure1(seed int64) Figure1Result {
	model := cellular.NewModel(cellular.Config{
		Tech: cellular.TechLTE, Operator: cellular.OperatorB,
		Scenario: cellular.CityStationary, MeanMbps: 10, Seed: seed,
	})
	tr := model.Trace(10 * time.Second)

	sim := netsim.NewSim()
	var rec Figure1Result
	const wStart, wEnd = 5 * time.Second, 5250 * time.Millisecond
	dispatcher := netsim.NewDispatcher()
	// A modest buffer keeps the flow in the regime the paper measured
	// (tens of ms of within-burst queueing, not bufferbloat).
	link := netsim.NewTraceLink(sim, netsim.NewDropTail(120_000), tr, 15*time.Millisecond, dispatcher, false, seed+1)
	var lastArrival time.Duration
	dispatcher.Register(0, netsim.ReceiverFunc(func(p *netsim.Packet) {
		now := sim.Now()
		if now >= wStart && now < wEnd {
			rec.Times = append(rec.Times, now)
			rec.Delays = append(rec.Delays, now-p.SentAt)
			if now-lastArrival > time.Millisecond || len(rec.Times) == 1 {
				rec.Bursts++
			}
			lastArrival = now
		}
	}))
	// Send just below the provisioned rate, as the paper's measurement tool
	// does; the burst structure, not persistent overload, drives the plot.
	netsim.NewCBR(sim, 0, link, MTU, 8.5, 0, 0, 0, 0)
	sim.Run(6 * time.Second)
	return rec
}

// Render prints the Fig. 1 series.
func (r Figure1Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 1: LTE 10 Mbps burst arrivals (250 ms window, %d packets, %d bursts)\n", len(r.Times), r.Bursts)
	for i := range r.Times {
		if i%8 == 0 { // thin the printout
			fmt.Fprintf(&b, "  t=%8.2f ms  delay=%6.2f ms\n",
				float64(r.Times[i].Microseconds())/1000, float64(r.Delays[i].Microseconds())/1000)
		}
	}
	return b.String()
}

// Figure2Result holds the burst-size and inter-arrival PDFs of paper Fig. 2
// for the four operator/technology combinations.
type Figure2Result struct {
	Labels []string
	// SizePDF and GapPDF are (centers, densities) pairs per label.
	SizeCenters, SizeDensity [][]float64
	GapCenters, GapDensity   [][]float64
	MeanBurstBytes           []float64
	MeanGapMs                []float64
}

// Figure2 generates stationary downlink traces for both operators on 3G and
// LTE and reports burst statistics. Each operator/technology combination is
// one trial on a pool of `parallel` workers (0 = GOMAXPROCS, 1 = serial).
func Figure2(d time.Duration, seed int64, parallel int) Figure2Result {
	var out Figure2Result
	configs := []struct {
		op   cellular.Operator
		tech cellular.Tech
	}{
		{cellular.OperatorA, cellular.Tech3G},
		{cellular.OperatorB, cellular.Tech3G},
		{cellular.OperatorA, cellular.TechLTE},
		{cellular.OperatorB, cellular.TechLTE},
	}
	type burstPDFs struct {
		sizeCenters, sizeDensity []float64
		gapCenters, gapDensity   []float64
		meanBurstBytes, meanGap  float64
	}
	var jobs []runner.Job[burstPDFs]
	for i, c := range configs {
		jobs = append(jobs, runner.Job[burstPDFs]{
			Key: int64(i),
			Run: func(trialSeed int64) burstPDFs {
				m := cellular.NewModel(cellular.Config{
					Tech: c.tech, Operator: c.op,
					Scenario: cellular.CityStationary, Seed: trialSeed,
				})
				tr := m.Trace(d)
				sizes, gaps := cellular.BurstStats(tr, 200*time.Microsecond)
				sh := stats.NewLogHistogram(100, 1.6, 40) // bytes
				gh := stats.NewLogHistogram(0.5, 1.6, 40) // milliseconds
				var sSum, gSum float64
				for _, s := range sizes {
					sh.Add(s)
					sSum += s
				}
				for _, g := range gaps {
					ms := float64(g.Microseconds()) / 1000
					gh.Add(ms)
					gSum += ms
				}
				var r burstPDFs
				r.sizeCenters, r.sizeDensity = sh.PDF()
				r.gapCenters, r.gapDensity = gh.PDF()
				if len(sizes) > 0 {
					r.meanBurstBytes = sSum / float64(len(sizes))
				}
				if len(gaps) > 0 {
					r.meanGap = gSum / float64(len(gaps))
				}
				return r
			},
		})
	}
	results := runner.Map(runner.New(parallel), seed, jobs)
	for i, c := range configs {
		r := results[i]
		out.Labels = append(out.Labels, fmt.Sprintf("%s %s", c.op, c.tech))
		out.SizeCenters = append(out.SizeCenters, r.sizeCenters)
		out.SizeDensity = append(out.SizeDensity, r.sizeDensity)
		out.GapCenters = append(out.GapCenters, r.gapCenters)
		out.GapDensity = append(out.GapDensity, r.gapDensity)
		out.MeanBurstBytes = append(out.MeanBurstBytes, r.meanBurstBytes)
		out.MeanGapMs = append(out.MeanGapMs, r.meanGap)
	}
	return out
}

// Render prints the Fig. 2 summary.
func (r Figure2Result) Render() string {
	rows := make([][]string, len(r.Labels))
	for i, l := range r.Labels {
		rows[i] = []string{
			l,
			fmt.Sprintf("%.0f", r.MeanBurstBytes[i]),
			fmt.Sprintf("%.2f", r.MeanGapMs[i]),
			fmt.Sprintf("%d", len(r.SizeCenters[i])),
		}
	}
	return "Figure 2: burst size / inter-arrival distributions\n" +
		table([]string{"network", "mean burst (B)", "mean gap (ms)", "pdf buckets"}, rows)
}

// Figure3Result reports user 1's average packet delay with the competing
// user OFF vs ON, for each of user 1's rates (paper Fig. 3).
type Figure3Result struct {
	Rates      []float64 // user 1 rates, Mbps
	DelayOffMs []float64
	DelayOnMs  []float64
}

// Figure3 runs the competing-traffic experiment: user 1 receives at a fixed
// rate while user 2 alternates 10 Mbps ON/OFF in one-minute periods over a
// shared 3G cell near saturation (the paper's combined rates "almost equal
// to the 3G channel capacity"). Each of user 1's rates is one trial on a
// pool of `parallel` workers (0 = GOMAXPROCS, 1 = serial). A non-nil o
// attaches the observability layer to each trial's bottleneck link and sinks.
func Figure3(seed int64, parallel int, o *obs.Observer) Figure3Result {
	const cellMbps = 18 // HSPA+ sector capacity: both users ON ≈ saturation
	out := Figure3Result{Rates: []float64{1, 5, 10}}
	type onOff struct{ onMs, offMs float64 }
	var jobs []runner.Job[onOff]
	for i, rate := range out.Rates {
		jobs = append(jobs, runner.Job[onOff]{
			Key: int64(i),
			Run: func(trialSeed int64) onOff {
				tr := cellTrace(cellular.Tech3G, cellular.CampusStationary, cellMbps, 6*time.Minute, trialSeed)
				d := Dumbbell{
					Trace: tr, QueueBytes: 2_000_000, OneWay: 15 * time.Millisecond,
					Flows: []netsim.FlowSpec{
						{CBRMbps: rate},
						{CBRMbps: 10, OnFor: time.Minute, OffFor: time.Minute},
					},
					Seed: trialSeed, Obs: o,
				}.run(6*time.Minute, nil)
				delays := d.Metrics[0].DelayOverTime.Means()
				var onSum, offSum float64
				var onN, offN int
				for w, dm := range delays {
					if dm == 0 {
						continue
					}
					sec := time.Duration(w) * time.Second
					if (sec/time.Minute)%2 == 0 { // user 2 ON during even minutes
						onSum += dm
						onN++
					} else {
						offSum += dm
						offN++
					}
				}
				var r onOff
				if onN > 0 {
					r.onMs = onSum / float64(onN) * 1000
				}
				if offN > 0 {
					r.offMs = offSum / float64(offN) * 1000
				}
				return r
			},
		})
	}
	for _, r := range runner.Map(runner.New(parallel), seed, jobs) {
		out.DelayOnMs = append(out.DelayOnMs, r.onMs)
		out.DelayOffMs = append(out.DelayOffMs, r.offMs)
	}
	return out
}

// Render prints the Fig. 3 bars.
func (r Figure3Result) Render() string {
	rows := make([][]string, len(r.Rates))
	for i := range r.Rates {
		rows[i] = []string{
			fmt.Sprintf("User1 %g Mbps", r.Rates[i]),
			fmt.Sprintf("%.1f", r.DelayOffMs[i]),
			fmt.Sprintf("%.1f", r.DelayOnMs[i]),
		}
	}
	return "Figure 3: competing-traffic delay on a 3G downlink\n" +
		table([]string{"scenario", "user2 OFF (ms)", "user2 ON (ms)"}, rows)
}

// Figure4Result holds windowed throughput of a saturated 3G downlink at two
// window sizes (paper Fig. 4), plus dispersion statistics.
type Figure4Result struct {
	Window100 []float64 // Mbps per 100 ms window over one minute
	Window20  []float64 // Mbps per 20 ms window over one minute
	CV100     float64   // coefficient of variation
	CV20      float64
}

// Figure4 generates the stationary 3G downlink trace and views it at 100 ms
// and 20 ms windows over the third minute (the paper plots minutes 2.0-3.0).
func Figure4(seed int64) Figure4Result {
	m := cellular.NewModel(cellular.Config{
		Tech: cellular.Tech3G, Operator: cellular.OperatorB,
		Scenario: cellular.CampusStationary, MeanMbps: 10, Seed: seed,
	})
	tr := m.Trace(3 * time.Minute)
	all100 := tr.WindowedMbps(100 * time.Millisecond)
	all20 := tr.WindowedMbps(20 * time.Millisecond)
	var out Figure4Result
	// Minute 2..3 in window indices.
	out.Window100 = sliceRange(all100, 1200, 1800)
	out.Window20 = sliceRange(all20, 6000, 9000)
	out.CV100 = cv(out.Window100)
	out.CV20 = cv(out.Window20)
	return out
}

// Render prints the Fig. 4 dispersion summary.
func (r Figure4Result) Render() string {
	return fmt.Sprintf(
		"Figure 4: 3G stationary downlink throughput variability\n"+
			"  100 ms windows: n=%d cv=%.2f\n   20 ms windows: n=%d cv=%.2f\n",
		len(r.Window100), r.CV100, len(r.Window20), r.CV20)
}

func sliceRange(xs []float64, lo, hi int) []float64 {
	if lo > len(xs) {
		lo = len(xs)
	}
	if hi > len(xs) {
		hi = len(xs)
	}
	return xs[lo:hi]
}

// cv returns stddev/mean of the series.
func cv(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var m float64
	for _, x := range xs {
		m += x
	}
	m /= float64(len(xs))
	if m == 0 {
		return 0
	}
	var v float64
	for _, x := range xs {
		v += (x - m) * (x - m)
	}
	v /= float64(len(xs))
	return math.Sqrt(v) / m
}

// PredictorResult is the §3 "channel unpredictability" study: normalized
// prediction error of simple predictors on short-window cellular throughput.
type PredictorResult struct {
	Window  time.Duration
	Results []predictor.Result
}

// PredictorStudy evaluates the paper's linear and k-step predictors (plus
// the persistence baseline) on the Figure 4 channel at 20 ms windows.
func PredictorStudy(seed int64) PredictorResult {
	f4 := Figure4(seed)
	series := f4.Window20
	out := PredictorResult{Window: 20 * time.Millisecond}
	preds := []predictor.Predictor{
		predictor.NewLastValue(),
		predictor.NewLinear(10),
		predictor.NewKStep(5, 0.8, 0.3),
	}
	for _, p := range preds {
		out.Results = append(out.Results, predictor.Evaluate(p, series))
	}
	return out
}

// Render prints the predictor study.
func (r PredictorResult) Render() string {
	rows := make([][]string, len(r.Results))
	for i, res := range r.Results {
		rows[i] = []string{res.Name, fmt.Sprintf("%.3f", res.RMSE), fmt.Sprintf("%.3f", res.NRMSE)}
	}
	return fmt.Sprintf("§3 predictor study (%v windows): NRMSE ≈ 1 means the channel resists prediction\n", r.Window) +
		table([]string{"predictor", "RMSE (Mbps)", "NRMSE"}, rows)
}
