package main

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro/internal/cellular"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/trace"
)

// check is one correctness check; failed checks over checks attempted is the
// run's fail_frac, reported as `failed` and `attempted`.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

func checkf(name string, ok bool, format string, args ...any) check {
	c := check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
	}
	return c
}

// rep is what one repetition of a workload's timed region produced.
type rep struct {
	simS    float64 // simulated seconds completed: Σ trial durations
	render  string  // every rendered output; must be identical across repetitions
	goodput float64 // simulated outcome of the Verus flows, Mbps
	delayMs float64 // ... and their one-way delay, ms
	// counts are deterministic (exact across repetitions and across runs of
	// one commit); timings are wall-clock measurements inside the repetition.
	counts  map[string]float64
	timings map[string]float64
	checks  []check
	// laps are the wall times of the repetition's consecutive stretches — a
	// trial, a sweep, a resume — in order; they sum to the repetition's wall.
	laps []float64
}

// lap closes the stretch that began at *t0 and starts the next.
func (r *rep) lap(t0 *time.Time) {
	now := time.Now()
	r.laps = append(r.laps, now.Sub(*t0).Seconds())
	*t0 = now
}

// workload is one named input set. prepare derives every input from the seed
// — the program under test receives only generated inputs — and returns the
// closed-loop repetition: one client, the next trial starts when the previous
// returns. verify, when set, runs after the timed region for checks that need
// a run on another executor.
type workload struct {
	name    string
	prepare func(z sizes, seed int64, tmp string) (runFunc, verifyFunc)
	// spans builds the trials the traced pass decorates: the workload's own
	// packet path where public constructors can rebuild it.
	spans func(z sizes, seed int64) []experiments.TraceRun
	// sharded marks the workloads whose timings depend on two threads running
	// in parallel; they are degraded when nproc < shards.
	sharded bool
}

type runFunc func() (*rep, error)

// verifyFunc returns further checks and info fields given the first repetition.
type verifyFunc func(first *rep) ([]check, map[string]float64, error)

var workloads = []workload{
	{name: "single_flow", prepare: prepareSingleFlow,
		spans: func(z sizes, seed int64) []experiments.TraceRun { return singleFlowInputs(z, seed)[:1] }},
	{name: "faults_traced", prepare: prepareFaultsTraced,
		spans: func(z sizes, seed int64) []experiments.TraceRun {
			return []experiments.TraceRun{cityLossTrial(subSeeds(seed, 1)[0], secs(z.FaultSimS), nil)}
		}},
	{name: "metro_heap", prepare: func(z sizes, seed int64, _ string) (runFunc, verifyFunc) {
		return prepareMetro(z, subSeeds(seed, z.MetroSeeds), 0), nil
	}, spans: sectorStandIn},
	{name: "metro_sharded", prepare: prepareMetroSharded, spans: sectorStandIn, sharded: true},
	{name: "metro_ckpt", prepare: prepareMetroCkpt, spans: sectorStandIn, sharded: true},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// subSeeds draws n trial seeds from the workload seed.
func subSeeds(seed int64, n int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, n)
	for i := range out {
		out[i] = rng.Int63()
	}
	return out
}

// campusTrace generates an LTE campus channel and rescales it to exactly
// meanMbps: the model's slow fading moves a short trace's mean by ±50 %
// between seeds, and packets per simulated second is the input size this
// workload states, so the benchmark pins it.
func campusTrace(seed int64, d time.Duration, meanMbps float64) *trace.Trace {
	m := cellular.NewModel(cellular.Config{
		Tech: cellular.TechLTE, Operator: cellular.OperatorB,
		Scenario: cellular.CampusStationary, MeanMbps: meanMbps, Seed: seed,
	})
	tr := m.Trace(d)
	return tr.Scale(meanMbps / tr.MeanMbps())
}

const (
	singleFlowMbps     = 20
	singleFlowTraceLen = 60 * time.Second // looped over the run
)

func singleFlowTrial(tr *trace.Trace, d time.Duration, seed int64) experiments.TraceRun {
	return experiments.TraceRun{
		Trace: tr, Maker: experiments.VerusMaker(2), Flows: 1, Duration: d,
		UseRED: true, BaseOneWay: 10 * time.Millisecond, Seed: seed,
	}
}

func singleFlowInputs(z sizes, seed int64) []experiments.TraceRun {
	d := secs(z.SingleSimS)
	traceLen := singleFlowTraceLen
	if d < traceLen {
		traceLen = d
	}
	var trials []experiments.TraceRun
	for _, s := range subSeeds(seed, z.SingleSeeds) {
		trials = append(trials, singleFlowTrial(campusTrace(s, traceLen, singleFlowMbps), d, s))
	}
	return trials
}

// renderRun prints a RunResult with every digit, so two renders are equal
// only when the runs were.
func renderRun(res experiments.RunResult) string {
	return fmt.Sprintf("%+v %v %v %+v\n", res.Flows, res.PerSecondMbps, res.PerSecondDelay, res.Faults)
}

// prepareSingleFlow: the paper's own protocol on the paper's own topology —
// one Verus (R=2) flow over a trace-driven RED bottleneck, 10 ms each way.
func prepareSingleFlow(z sizes, seed int64, _ string) (runFunc, verifyFunc) {
	trials := singleFlowInputs(z, seed)
	return func() (*rep, error) {
		r := newRep()
		var b strings.Builder
		t0 := time.Now()
		for _, tr := range trials {
			res := tr.Run()
			r.lap(&t0)
			b.WriteString(renderRun(res))
			r.simS += tr.Duration.Seconds()
			r.goodput += res.Flows[0].Mbps / float64(len(trials))
			r.delayMs += res.Flows[0].DelayP95 * 1e3 / float64(len(trials))
			r.counts["netsim.source.loss_detected"] += float64(res.Flows[0].Losses)
			r.counts["netsim.source.timeouts"] += float64(res.Flows[0].Timeouts)
		}
		r.render = b.String()
		r.checks = append(r.checks, checkf("verus delivers", r.goodput > 0, "goodput %v", r.goodput))
		return r, nil
	}, nil
}

// faultContenders are the chaos contenders of experiments.FaultScenario: the
// recovery-enabled Verus first, the stock Verus as its ablation, and the
// loss-based baselines.
func faultContenders() []experiments.Maker {
	return []experiments.Maker{experiments.VerusResilientMaker(2), experiments.VerusMaker(2),
		experiments.CubicMaker(), experiments.NewRenoMaker()}
}

const faultCellMbps = 25

// faultTrial is one trial of the chaos evaluation as experiments.FaultScenario
// composes it — four flows of one protocol over a 3G cell in the mobility
// pattern the plan models, with the plan's faults on the bottleneck — except
// that the benchmark generates the trace itself and rescales it to exactly
// faultCellMbps. FaultScenario draws its traces inside from the seed, and
// their capacity moves the packet count, and with it the wall time, by ±30 %
// between seeds.
func faultTrial(plan string, mk experiments.Maker, d time.Duration, seed int64) experiments.TraceRun {
	p, err := faults.ByName(plan, d)
	if err != nil {
		panic(err) // callers pass names from faults.Names
	}
	sc := cellular.CityDriving
	if plan == faults.ScenarioHighwayHandover {
		sc = cellular.HighwayDriving
	}
	m := cellular.NewModel(cellular.Config{Tech: cellular.Tech3G, Operator: cellular.OperatorB,
		Scenario: sc, MeanMbps: faultCellMbps, Seed: seed})
	tr := m.Trace(d)
	return experiments.TraceRun{
		Trace: tr.Scale(faultCellMbps / tr.MeanMbps()), Maker: mk, Flows: 4, Duration: d,
		QueueBytes: 1_500_000, BaseOneWay: 10 * time.Millisecond, Seed: seed, Faults: p,
	}
}

// prepareFaultsTraced: the same packet path used differently — every canned
// fault plan against the four chaos contenders with the observer attached,
// then all three exporters and a strict re-parse, inside the timed region.
func prepareFaultsTraced(z sizes, seed int64, tmp string) (runFunc, verifyFunc) {
	var trials []experiments.TraceRun
	seeds := subSeeds(seed, len(faults.Names())*len(faultContenders())*z.FaultReps)
	for _, plan := range faults.Names() {
		for _, mk := range faultContenders() {
			for r := 0; r < z.FaultReps; r++ {
				trials = append(trials, faultTrial(plan, mk, secs(z.FaultSimS), seeds[len(trials)]))
			}
		}
	}
	resilient := faultContenders()[0].Name
	return func() (*rep, error) {
		r := newRep()
		o := obs.NewObserver(obs.NewTracer(z.ObsRing), obs.NewRegistry())
		var b strings.Builder
		verusTrials := 0.0
		start := time.Now()
		t0 := start
		for _, tr := range trials {
			tr.Obs = o
			res := tr.Run()
			r.lap(&t0)
			b.WriteString(renderRun(res))
			r.simS += tr.Duration.Seconds()
			if tr.Maker.Name == resilient {
				verusTrials++
				r.goodput += res.MeanMbps()
				for _, f := range res.Flows {
					r.delayMs += f.DelayP95 * 1e3 / float64(len(res.Flows))
				}
			}
			c := res.Faults
			r.counts["faults.dropped"] += float64(c.SendDropped + c.QueueDrained + c.EgressDropped + c.BurstLost + c.Corrupted)
			r.counts["faults.duplicated"] += float64(c.Duplicated)
			r.counts["faults.reordered"] += float64(c.Reordered)
			r.counts["faults.released"] += float64(c.Released)
			r.counts["faults.delivered"] += float64(c.Delivered)
			for _, f := range res.Flows {
				r.counts["netsim.source.loss_detected"] += float64(f.Losses)
				r.counts["netsim.source.timeouts"] += float64(f.Timeouts)
			}
		}
		r.goodput /= verusTrials
		r.delayMs /= verusTrials
		r.timings["faults.sim_leg_s"] = time.Since(start).Seconds()
		r.render = b.String()

		events := o.Tracer().Snapshot()
		r.counts["obs.events_emitted"] = float64(o.Tracer().Emitted())
		r.counts["obs.events_kept"] = float64(len(events))
		o.SyncTraceDropped()
		parsed, err := exportAndReparse(tmp, events, o.Registry())
		if err != nil {
			return nil, err
		}
		r.checks = append(r.checks,
			checkf("jsonl round trip keeps every event", parsed == len(events), "wrote %d events, read back %d", len(events), parsed),
			checkf("tracer saw events", len(events) > 0, "empty trace"),
			checkf("verus delivers", r.goodput > 0, "goodput %v", r.goodput))
		return r, nil
	}, nil
}

// exportAndReparse streams the trace through all three exporters to files
// under dir and parses the JSONL and Prometheus outputs back from them,
// returning the number of events the JSONL reader recovered. Nothing is held
// in a buffer of the benchmark's own: a 10 MB copy of an export, alive or not
// when the collector runs, moved the peak RSS by 15 % from run to run.
func exportAndReparse(dir string, events []obs.Event, reg *obs.Registry) (int, error) {
	write := func(name string, fn func(io.Writer) error) (string, error) {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			return "", err
		}
		defer f.Close()
		w := bufio.NewWriter(f)
		if err := fn(w); err != nil {
			return "", fmt.Errorf("export %s: %w", name, err)
		}
		if err := w.Flush(); err != nil {
			return "", err
		}
		return path, f.Close()
	}
	parsed := 0
	read := func(path string, fn func(io.Reader) error) error {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := fn(bufio.NewReader(f)); err != nil {
			return fmt.Errorf("re-parse %s: %w", path, err)
		}
		return nil
	}
	jsonl, err := write("trace.jsonl", func(w io.Writer) error { return obs.WriteJSONL(w, events) })
	if err != nil {
		return 0, err
	}
	if _, err := write("trace.chrome.json", func(w io.Writer) error { return obs.WriteChromeTrace(w, events) }); err != nil {
		return 0, err
	}
	prom, err := write("metrics.prom", func(w io.Writer) error { return obs.WritePrometheus(w, reg) })
	if err != nil {
		return 0, err
	}
	if err := read(jsonl, func(r io.Reader) error {
		back, err := obs.ReadJSONL(r)
		parsed = len(back)
		return err
	}); err != nil {
		return 0, err
	}
	err = read(prom, func(r io.Reader) error {
		_, err := obs.ParsePrometheus(r)
		return err
	})
	return parsed, err
}

// metroOptions is one sweep's options. The sub-seed picks the topology:
// where the users live, who churns, every sector's channel.
func metroOptions(z sizes, subSeed int64, shards int) experiments.MetroOptions {
	o := experiments.DefaultMetroOptions()
	o.Sectors = z.MetroSectors
	o.FlowCounts = []int{z.MetroFlows}
	o.Duration = secs(z.MetroSimS)
	o.Shards = shards
	o.ChurnFrac = z.MetroChurn
	o.HandoverScale = z.MetroHandover
	o.Seed = subSeed
	o.Parallel = 1
	return o
}

// metroP95 indexes MetroPoint.DelayQuantiles, which reports the percentiles
// {5, 25, 50, 75, 90, 95, 99}.
const metroP95 = 5

// addSweep folds one finished sweep into a repetition: the Verus point
// carries the simulated-outcome metrics (the mean over the repetition's
// `sweeps` sweeps, the worst sector's fairness), every point carries counts
// and the attribution identity.
func (r *rep) addSweep(res experiments.MetroResult, d time.Duration, sweeps int) string {
	render := res.Render() + res.RenderAttribution()
	r.render += render
	r.simS += float64(len(res.Points)) * d.Seconds()
	for _, p := range res.Points {
		r.counts["netsim.mesh.cross_msgs"] += float64(p.CrossMsgs)
		r.counts["netsim.mesh.handovers"] += float64(p.Handovers)
		r.counts["netsim.sink.delivered"] += float64(p.Attrib.Count)
		r.checks = append(r.checks, checkf("attribution identity holds: "+p.Protocol,
			p.Attrib.Violations == 0 && p.Attrib.Negatives == 0,
			"%d violations, %d negative components", p.Attrib.Violations, p.Attrib.Negatives))
		if strings.HasPrefix(p.Protocol, "Verus") {
			r.goodput += p.AggMbps / float64(sweeps)
			r.delayMs += p.DelayQuantiles[metroP95] * 1e3 / float64(sweeps)
			jain := slices.Min(p.CellJain)
			if cur, ok := r.counts["sim_jain_min"]; !ok || jain < cur {
				r.counts["sim_jain_min"] = jain
			}
			r.checks = append(r.checks, checkf("verus delivers", p.AggMbps > 0, "goodput %v", p.AggMbps))
		}
	}
	return render
}

// checkCrossCell fails a repetition whose mesh stayed idle.
func (r *rep) checkCrossCell() {
	r.checks = append(r.checks, checkf("handovers cross cells", r.counts["netsim.mesh.cross_msgs"] > 0,
		"no cross-cell message: the mesh is idle"))
}

func newRep() *rep { return &rep{counts: map[string]float64{}, timings: map[string]float64{}} }

// prepareMetro: three protocols × MetroFlows flows at ~13 pkt/s each, where
// controller ticks and per-flow timers dominate and packets are rare, swept
// once on each of the given topologies. shards 0 is the single-heap
// reference executor.
func prepareMetro(z sizes, subSeeds []int64, shards int) runFunc {
	return func() (*rep, error) {
		r := newRep()
		t0 := time.Now()
		for i, s := range subSeeds {
			opts := metroOptions(z, s, shards)
			res, err := experiments.Metro(opts)
			if err != nil {
				return nil, err
			}
			r.lap(&t0)
			if i == 0 {
				r.timings["metro.first_sweep_s"] = r.laps[0]
			}
			r.addSweep(res, opts.Duration, len(subSeeds))
		}
		r.checkCrossCell()
		return r, nil
	}
}

// timedRun runs one repetition and returns it with its wall time; what the
// repetition did after its last lap becomes the final lap.
func timedRun(run runFunc) (*rep, float64, error) {
	t0 := time.Now()
	r, err := run()
	wall := time.Since(t0).Seconds()
	if err == nil {
		rest := wall
		for _, l := range r.laps {
			rest -= l
		}
		r.laps = append(r.laps, rest)
	}
	return r, wall, err
}

// prepareMetroSharded: identical options on the sharded executor; the
// reference executor's render of the first topology must be byte-identical.
func prepareMetroSharded(z sizes, seed int64, _ string) (runFunc, verifyFunc) {
	seeds := subSeeds(seed, z.MetroSeeds)
	verify := func(first *rep) ([]check, map[string]float64, error) {
		ref, wall, err := timedRun(prepareMetro(z, seeds[:1], 0))
		if err != nil {
			return nil, nil, err
		}
		return []check{checkf("metro_heap render equals metro_sharded render", strings.HasPrefix(first.render, ref.render), "renders differ")},
			map[string]float64{"heap_first_sweep_s": wall}, nil
	}
	return prepareMetro(z, seeds, z.MetroShards), verify
}

// prepareMetroCkpt: on each topology, the sharded sweep writing a snapshot
// every CkptEveryS of virtual time (write leg), then Resumes resumes from the
// last snapshots to completion (read leg) — writes beside reads of the same
// snap layer.
func prepareMetroCkpt(z sizes, seed int64, tmp string) (runFunc, verifyFunc) {
	seeds := subSeeds(seed, z.MetroSeeds)
	every := secs(z.CkptEveryS)
	d := secs(z.MetroSimS)
	perTrial := 0 // snapshots per protocol trial: barriers strictly inside the trial
	for next := every; next < d; next += every {
		perTrial++
	}
	trials := 3 // experiments.Metro sweeps three protocols per flow count
	keep := func(ordinal int) string {
		return filepath.Join(tmp, fmt.Sprintf("ckpt.keep%d.snap", ordinal%z.Resumes))
	}
	run := func() (*rep, error) {
		r := newRep()
		var resumes []float64
		t0 := time.Now()
		for i, s := range seeds {
			base := metroOptions(z, s, z.MetroShards)
			w := base
			w.CheckpointEvery = every
			w.CheckpointPath = filepath.Join(tmp, "ckpt.snap")
			last := 0
			var hookErr error
			w.CheckpointHook = func(ordinal int, path string) {
				last = ordinal
				if err := copyFile(path, keep(ordinal)); err != nil && hookErr == nil {
					hookErr = err
				}
			}
			r.lap(&t0) // bookkeeping since the last lap, so the next is the write leg alone
			res, err := experiments.Metro(w)
			if err == nil {
				err = hookErr
			}
			if err != nil {
				return nil, err
			}
			r.lap(&t0)
			leg := r.laps[len(r.laps)-1]
			r.timings["ckpt.write_leg_s"] += leg
			if i == 0 {
				r.timings["ckpt.first_write_leg_s"] = leg
			}
			render := r.addSweep(res, d, len(seeds))
			r.counts["ckpt.snapshots"] += float64(last)
			if fi, err := os.Stat(w.CheckpointPath); err == nil {
				r.counts["ckpt_bytes"] = float64(fi.Size())
			}
			r.checks = append(r.checks, checkf("write leg wrote every snapshot", last == perTrial*trials,
				"wrote %d snapshots, expected %d", last, perTrial*trials))

			for ord := max(1, last-z.Resumes+1); ord <= last; ord++ {
				rd := base
				rd.ResumeFrom = keep(ord)
				r.lap(&t0)
				got, err := experiments.Metro(rd)
				if err != nil {
					return nil, fmt.Errorf("resume from snapshot %d: %w", ord, err)
				}
				resumed := got.Render() + got.RenderAttribution()
				r.lap(&t0)
				resumes = append(resumes, r.laps[len(r.laps)-1])
				trial := (ord - 1) / perTrial
				barrier := time.Duration((ord-1)%perTrial+1) * every
				r.simS += (d - barrier).Seconds() + float64(trials-1-trial)*d.Seconds()
				r.checks = append(r.checks, checkf(fmt.Sprintf("resume %d renders like the uninterrupted sweep", ord),
					resumed == render, "renders differ"))
			}
		}
		r.checkCrossCell()
		r.timings["resume_s"] = median(resumes)
		r.counts["ckpt.resumes"] = float64(len(resumes))
		return r, nil
	}
	verify := func(first *rep) ([]check, map[string]float64, error) {
		ref, wall, err := timedRun(prepareMetro(z, seeds[:1], z.MetroShards))
		if err != nil {
			return nil, nil, err
		}
		return []check{checkf("metro_sharded render equals metro_ckpt render", strings.HasPrefix(first.render, ref.render), "renders differ")},
			map[string]float64{"sharded_first_sweep_s": wall}, nil
	}
	return run, verify
}

func copyFile(src, dst string) error {
	data, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, data, 0o644)
}
