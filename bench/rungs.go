package main

import (
	"bytes"
	"io"
	"math"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/cc"
	"repro/internal/cellular"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/snap"
	"repro/internal/spline"
	"repro/internal/sprout"
	"repro/internal/stats"
	"repro/internal/tcp"
	"repro/internal/trace"
)

// A rung times one public function in isolation. perOp calls op(n) — which
// performs about n operations and returns how many it did — with n grown
// until a batch lasts cfg.rungBatch, and returns the median nanoseconds per
// operation over cfg.rungBatches batches.
func perOp(cfg config, op func(n int) int) float64 {
	n := 1
	for n < 1<<30 {
		t0 := time.Now()
		op(n)
		el := time.Since(t0)
		if el >= cfg.rungBatch {
			break
		}
		if el < cfg.rungBatch/16 {
			n *= 8
		} else {
			n = int(float64(n)*float64(cfg.rungBatch)/float64(el)*1.1) + 1
		}
	}
	var ns []float64
	for b := 0; b < cfg.rungBatches; b++ {
		t0 := time.Now()
		done := op(n)
		ns = append(ns, float64(time.Since(t0))/float64(max(done, 1)))
	}
	return median(ns)
}

// perCall is perOp for an operation too heavy to batch: prep (untimed)
// builds a fresh input and returns the call to time; the result is the
// median nanoseconds of min(cfg.rungBatches, 5) calls.
func perCall(cfg config, prep func() func()) float64 {
	var ns []float64
	for b := 0; b < min(cfg.rungBatches, 5); b++ {
		call := prep()
		t0 := time.Now()
		call()
		ns = append(ns, float64(time.Since(t0)))
	}
	return median(ns)
}

// fixedWindow is the stub controller of the Source rungs: a constant window,
// no reaction, so the time measured is the host's, not a controller's.
type fixedWindow struct{ w int }

func (f fixedWindow) Name() string                                { return "fixed-window" }
func (f fixedWindow) OnAck(time.Duration, cc.AckSample)           {}
func (f fixedWindow) OnLoss(time.Duration, cc.LossEvent)          {}
func (f fixedWindow) OnTimeout(time.Duration)                     {}
func (f fixedWindow) TickInterval() time.Duration                 { return 0 }
func (f fixedWindow) Tick(time.Duration)                          {}
func (f fixedWindow) Allowance(_ time.Duration, inflight int) int { return f.w - inflight }
func (f fixedWindow) SendTag() int                                { return f.w }
func (f fixedWindow) OnSend(time.Duration, int64, int)            {}

// profileKnots is a delay-profile-shaped point set: integer windows with a
// gently convex delay curve, what the Verus profiler feeds the spline.
func profileKnots(n int) (xs, ys []float64) {
	xs, ys = make([]float64, n), make([]float64, n)
	for i := range xs {
		w := float64(i + 1)
		xs[i], ys[i] = w, 0.02+0.0004*math.Pow(w, 1.3)
	}
	return xs, ys
}

// rungTrace is the channel the link rungs replay.
func rungTrace(seed int64) *trace.Trace { return campusTrace(seed, 10*time.Second, singleFlowMbps) }

// linkRung measures wall time per packet pushed through a bottleneck built by
// mk: the queue is kept backlogged, so the cost is the link's service path
// (pool get, enqueue, service event, propagation event, release) and not idle
// opportunities.
func linkRung(cfg config, mk func(sim *netsim.Sim, dst netsim.Receiver) netsim.Link) float64 {
	sim := netsim.NewSim()
	link := mk(sim, netsim.ReceiverFunc(func(p *netsim.Packet) { sim.FreePacket(p) }))
	var seq int64
	return perOp(cfg, func(n int) int {
		sent := 0
		for sent < n {
			for link.Queue().Len() < 64 {
				link.Send(sim.NewPacket(0, seq, experiments.MTU, sim.Now(), 0))
				seq++
				sent++
			}
			sim.Run(sim.Now() + 5*time.Millisecond)
		}
		return sent
	})
}

func fixedLinkMk(sim *netsim.Sim, dst netsim.Receiver) netsim.Link {
	return netsim.NewFixedLink(sim, netsim.NewDropTail(1<<20), 100, 10*time.Millisecond, dst, 1)
}

// sourceAckRung is wall time per acknowledged packet of one Source with a
// fixed window of w over an uncongested FixedLink: the per-ack host duties
// (in-flight scan, loss detection, RTT estimate) grow with the window.
func sourceAckRung(cfg config, w int) float64 {
	sim := netsim.NewSim()
	disp := netsim.NewDispatcher()
	link := netsim.NewFixedLink(sim, netsim.NewDropTail(1<<26), 20000, 5*time.Millisecond, disp, 1)
	src, m := netsim.NewSource(sim, 0, fixedWindow{w}, link, experiments.MTU, 5*time.Millisecond, 0, 0)
	disp.Register(0, src.Sink())
	sim.Run(50 * time.Millisecond) // fill the window
	perRTT := float64(w)
	return perOp(cfg, func(n int) int {
		before := m.Received
		rtts := math.Ceil(float64(n) / perRTT)
		sim.Run(sim.Now() + time.Duration(rtts*float64(10*time.Millisecond)))
		return int(m.Received - before)
	})
}

// snapRungs measures the snapshot layer on a 256-flow dumbbell stopped
// mid-run: Snapshot+Encode, Decode+Restore onto a rebuilt topology, and
// WriteFile, each per megabyte of payload.
func snapRungs(cfg config, out map[string]float64) error {
	const flows = 256
	tr := rungTrace(cfg.seed)
	build := func() *netsim.Dumbbell {
		sim := netsim.NewSim()
		specs := make([]netsim.FlowSpec, flows)
		for i := range specs {
			specs[i] = netsim.FlowSpec{Ctrl: experiments.VerusMaker(2).New(), AckDelay: 10 * time.Millisecond}
		}
		return netsim.NewDumbbell(sim, func(dst netsim.Receiver) netsim.Link {
			return netsim.NewTraceLink(sim, netsim.NewDropTail(8_000_000), tr, 10*time.Millisecond, dst, true, 1)
		}, experiments.MTU, specs)
	}
	d := build()
	d.Run(2 * time.Second)
	var data []byte
	var encErr error
	encNs := perCall(cfg, func() func() {
		return func() {
			e := snap.NewEncoder()
			d.Snapshot(e)
			data, encErr = e.Encode(snap.Version)
		}
	})
	if encErr != nil {
		return encErr
	}
	mb := float64(len(data)) / 1e6
	var decErr error
	restoreNs := perCall(cfg, func() func() {
		fresh := build()
		return func() {
			dec, err := snap.Decode(data, snap.Version)
			if err != nil {
				decErr = err
				return
			}
			fresh.Restore(dec)
			if decErr = dec.Err(); decErr == nil {
				decErr = dec.Done()
			}
		}
	})
	if decErr != nil {
		return decErr
	}
	var writeErr error
	writeNs := perCall(cfg, func() func() {
		e := snap.NewEncoder()
		d.Snapshot(e)
		return func() { writeErr = snap.WriteFile(filepath.Join(cfg.tmp, "rung.snap"), e, snap.Version) }
	})
	if writeErr != nil {
		return writeErr
	}
	out["snap.encode_ms_per_mb"] = encNs / 1e6 / mb
	out["snap.restore_ms_per_mb"] = restoreNs / 1e6 / mb
	out["snap.writefile_ms_per_mb"] = writeNs / 1e6 / mb
	out["snap.bytes_per_flow"] = float64(len(data)) / flows
	return nil
}

// cityLossTrial is the small trial behind the obs rungs and the decorated
// faults topology: four resilient-Verus flows under the city-loss plan.
func cityLossTrial(seed int64, d time.Duration, o *obs.Observer) experiments.TraceRun {
	tr := faultTrial(faults.ScenarioCityLoss, faultContenders()[0], d, seed)
	tr.Obs = o
	return tr
}

// obsRungs measures the observability layer: one Emit, each exporter and the
// JSONL reader per event of a real trace, the Prometheus exposition, and the
// share of a simulation leg's wall time that attaching the observer costs.
func obsRungs(cfg config, out map[string]float64) error {
	tracer := obs.NewTracer(1 << 12)
	ev := obs.Event{At: 125 * time.Millisecond, Kind: obs.KindVerusEpoch, Flow: 3, Run: 42, V0: 0.081, V1: 0.064, V2: 31.5, V3: 12}
	out["obs.emit_ns"] = perOp(cfg, func(n int) int {
		for i := 0; i < n; i++ {
			tracer.Emit(ev)
		}
		return n
	})

	const simS = 10
	var with, without []float64
	var o *obs.Observer
	for i := 0; i < min(cfg.rungBatches, 3); i++ {
		o = obs.NewObserver(obs.NewTracer(1<<15), obs.NewRegistry())
		t0 := time.Now()
		cityLossTrial(cfg.seed, simS*time.Second, o).Run()
		with = append(with, time.Since(t0).Seconds())
		t0 = time.Now()
		cityLossTrial(cfg.seed, simS*time.Second, nil).Run()
		without = append(without, time.Since(t0).Seconds())
	}
	out["obs.enabled_overhead_share"] = 1 - median(without)/median(with)

	events := o.Tracer().Snapshot()
	n := float64(len(events))
	var buf bytes.Buffer
	var err error
	export := func(fn func(io.Writer) error) float64 {
		return perCall(cfg, func() func() {
			buf.Reset()
			return func() {
				if e := fn(&buf); e != nil {
					err = e
				}
			}
		})
	}
	out["obs.chrome_us_per_event"] = export(func(w io.Writer) error { return obs.WriteChromeTrace(w, events) }) / 1e3 / n
	out["obs.prom_ms"] = export(func(w io.Writer) error { return obs.WritePrometheus(w, o.Registry()) }) / 1e6
	out["obs.jsonl_us_per_event"] = export(func(w io.Writer) error { return obs.WriteJSONL(w, events) }) / 1e3 / n
	jsonl := append([]byte(nil), buf.Bytes()...)
	out["obs.readjsonl_us_per_event"] = perCall(cfg, func() func() {
		return func() {
			if _, e := obs.ReadJSONL(bytes.NewReader(jsonl)); e != nil {
				err = e
			}
		}
	}) / 1e3 / n
	return err
}

// parallelOnly are the rungs that are core-scaling figures: never emitted
// from a machine that cannot run two threads in parallel.
var parallelOnly = map[string]bool{"netsim.mesh.window_ns_s2": true, "experiments.runner.speedup_p2": true}

// parallelRungs measures one idle mesh window barrier at 1 and 2 shards and
// trial-level parallelism — what verus-bench uses by default: one fault
// scenario on two workers against one.
func parallelRungs(cfg config, out map[string]float64) error {
	for _, r := range []struct {
		name   string
		shards int
	}{{"netsim.mesh.window_ns_s1", 1}, {"netsim.mesh.window_ns_s2", 2}} {
		if r.shards > cfg.nproc {
			continue
		}
		m := netsim.NewMesh(8, time.Millisecond)
		out[r.name] = perOp(cfg, func(n int) int {
			before := m.Windows()
			m.RunSharded(m.Now()+time.Duration(n)*m.Lookahead(), r.shards)
			return int(m.Windows() - before)
		})
	}
	if cfg.nproc < 2 {
		return nil
	}
	var err error
	wall := func(parallel int) float64 {
		return perCall(cfg, func() func() {
			return func() {
				_, err = experiments.FaultScenario(faults.ScenarioCityLoss,
					experiments.MacroOptions{Duration: 10 * time.Second, Reps: 2, Seed: cfg.seed, Parallel: parallel})
			}
		})
	}
	out["experiments.runner.speedup_p2"] = wall(1) / wall(2)
	return err
}

// runRungs times every isolated rung. The values do not depend on the
// workload; each traced run repeats them so that every result file carries
// the whole ladder beside the spans and counts that are the workload's own.
func runRungs(cfg config, out map[string]float64) error {
	xs, ys := profileKnots(64)
	sp, err := spline.Fit(xs, ys)
	if err != nil {
		return err
	}
	out["spline.refit_ns_k64"] = perOp(cfg, func(n int) int {
		for i := 0; i < n; i++ {
			if err := sp.RefitSorted(xs, ys); err != nil {
				panic(err) // the knots above are strictly increasing
			}
		}
		return n
	})
	grid := make([]float64, 1024)
	step := (2*sp.MaxX() - 1) / float64(len(grid)-1)
	out["spline.evalgrid_ns_per_pt"] = perOp(cfg, func(n int) int {
		for i := 0; i < n; i++ {
			sp.EvalGrid(1, step, grid)
		}
		return n * len(grid)
	})

	cubic := tcp.NewCubic()
	var now time.Duration
	var seq int64
	out["tcp.cubic.onack_ns"] = perOp(cfg, func(n int) int {
		for i := 0; i < n; i++ {
			now += time.Millisecond
			seq++
			cubic.OnAck(now, cc.AckSample{Seq: seq, RTT: 40 * time.Millisecond, Inflight: 10, Bytes: experiments.MTU})
		}
		return n
	})

	// Sprout's tick is the first-order term of every metro workload: fed at
	// the metro's ~13 packets per second per flow, and at a saturated 1600.
	for _, r := range []struct {
		name string
		pps  float64
	}{{"sprout.tick_ns", 13}, {"sprout.tick_ns_1600pps", 1600}} {
		s := sprout.New(sprout.DefaultConfig())
		iv := s.TickInterval()
		var now time.Duration
		var seq int64
		owed := 0.0
		out[r.name] = perOp(cfg, func(n int) int {
			for i := 0; i < n; i++ {
				now += iv
				for owed += r.pps * iv.Seconds(); owed >= 1; owed-- {
					seq++
					s.OnAck(now, cc.AckSample{Seq: seq, RTT: 40 * time.Millisecond, Inflight: 4, Bytes: experiments.MTU})
				}
				s.Tick(now)
			}
			return n
		})
	}

	for _, r := range []struct {
		name  string
		depth int
	}{{"netsim.sim.event_ns_d100", 100}, {"netsim.sim.event_ns_d10k", 10000}} {
		sim := netsim.NewSim()
		fn := func() {}
		for i := 0; i < r.depth; i++ {
			sim.Schedule(time.Duration(i), fn)
		}
		next := time.Duration(r.depth)
		out[r.name] = perOp(cfg, func(n int) int {
			for i := 0; i < n; i++ {
				// Push at the back and pop the head: the heap holds its depth.
				sim.Schedule(next, fn)
				next++
				sim.Run(next - time.Duration(r.depth))
			}
			return n
		})
	}
	{
		sim := netsim.NewSim()
		fires := 0
		for i := 0; i < 1000; i++ {
			sim.Every(5*time.Millisecond, func() { fires++ })
		}
		out["netsim.sim.timer_ns_n1k"] = perOp(cfg, func(n int) int {
			before := fires
			sim.Run(sim.Now() + time.Duration(n/1000+1)*5*time.Millisecond)
			return fires - before
		})
	}

	out["netsim.source.ack_ns_w16"] = sourceAckRung(cfg, 16)
	out["netsim.source.ack_ns_w256"] = sourceAckRung(cfg, 256)
	out["netsim.source.ack_ns_w4096"] = sourceAckRung(cfg, 4096)

	for _, r := range []struct {
		name string
		q    netsim.Queue
	}{{"netsim.droptail.op_ns", netsim.NewDropTail(1 << 20)}, {"netsim.red.op_ns", netsim.PaperRED(cfg.seed)}} {
		// One op is an enqueue and a dequeue at a standing depth of 64
		// packets, below RED's lower threshold so nothing is dropped.
		sim := netsim.NewSim()
		for i := 0; i < 64; i++ {
			r.q.Enqueue(sim.NewPacket(0, int64(i), experiments.MTU, 0, 0), 0)
		}
		var now time.Duration
		q := r.q
		out[r.name] = perOp(cfg, func(n int) int {
			for i := 0; i < n; i++ {
				now += time.Microsecond
				p := q.Dequeue(now)
				if !q.Enqueue(p, now) {
					panic("bench: queue rung dropped below its threshold")
				}
			}
			return n
		})
	}

	tr := rungTrace(cfg.seed)
	bare := linkRung(cfg, fixedLinkMk)
	out["netsim.fixedlink.pkt_ns"] = bare
	out["netsim.tracelink.pkt_ns"] = linkRung(cfg, func(sim *netsim.Sim, dst netsim.Receiver) netsim.Link {
		return netsim.NewTraceLink(sim, netsim.NewDropTail(1<<20), tr, 10*time.Millisecond, dst, true, 1)
	})
	// The decorator's cost is the difference to the bare link, per packet sent.
	wrapped := func(plan *faults.Plan) float64 {
		return linkRung(cfg, func(sim *netsim.Sim, dst netsim.Receiver) netsim.Link {
			return faults.Wrap(sim, plan, 1, dst, func(d netsim.Receiver) netsim.Link { return fixedLinkMk(sim, d) })
		}) - bare
	}
	out["faults.wrap_zero_ns"] = wrapped(&faults.Plan{})
	out["faults.wrap_active_ns"] = wrapped(faults.CityDrive(time.Hour))

	{
		m := netsim.NewMesh(8, time.Millisecond)
		src, dst := m.Cell(0), m.Cell(1)
		free := netsim.ReceiverFunc(func(p *netsim.Packet) { dst.FreePacket(p) })
		var seq int64
		out["netsim.mesh.sendpacket_ns"] = perOp(cfg, func(n int) int {
			for i := 0; i < n; i++ {
				seq++
				m.SendPacket(0, 1, m.Lookahead(), free, src.NewPacket(0, seq, experiments.MTU, src.Now(), 0))
				if i%256 == 255 {
					m.RunSingle(m.Now() + 2*m.Lookahead())
				}
			}
			m.RunSingle(m.Now() + 2*m.Lookahead())
			return n
		})
	}

	var attrib stats.Attribution
	comps := [stats.NumDelayComps]time.Duration{}
	comps[stats.DelayQueue], comps[stats.DelayPropagate] = 7*time.Millisecond, 10*time.Millisecond
	out["stats.attrib.record_ns"] = perOp(cfg, func(n int) int {
		for i := 0; i < n; i++ {
			attrib.Record(comps, 17*time.Millisecond)
		}
		return n
	})
	// The end-of-run sort behind every reported percentile.
	out["stats.summary.p95_ms_n1m"] = perCall(cfg, func() func() {
		s := stats.NewSummary(1 << 20)
		x := uint64(cfg.seed)*2654435761 + 1
		for i := 0; i < 1_000_000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			s.Add(float64(x>>40) / (1 << 24))
		}
		return func() { s.Percentile(95) }
	}) / 1e6

	if err := snapRungs(cfg, out); err != nil {
		return err
	}
	if err := obsRungs(cfg, out); err != nil {
		return err
	}

	model := cellular.NewModel(cellular.Config{Tech: cellular.TechLTE, Operator: cellular.OperatorB,
		Scenario: cellular.CampusStationary, MeanMbps: singleFlowMbps, Seed: cfg.seed})
	out["cellular.trace_gen_ms_per_sim_s"] = perCall(cfg, func() func() {
		return func() { model.Trace(30 * time.Second) }
	}) / 1e6 / 30
	var metroErr error
	out["cellular.metro_build_ms_u1k"] = perCall(cfg, func() func() {
		return func() {
			_, metroErr = cellular.NewMetro(cellular.MetroConfig{Sectors: 8, Users: 1000, Tech: cellular.TechLTE,
				Operator: cellular.OperatorB, MeanMbps: 40, Horizon: 30 * time.Second, ChurnFrac: 0.3, Seed: cfg.seed})
		}
	}) / 1e6
	if metroErr != nil {
		return metroErr
	}

	if err := parallelRungs(cfg, out); err != nil {
		return err
	}
	runtime.GC()
	return err
}
