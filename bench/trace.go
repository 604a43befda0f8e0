package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/cc"
	"repro/internal/cellular"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/stats"
	"repro/internal/verus"
)

// The traced pass records spans from the benchmark's own files, around the
// calls into each layer: the experiments.TraceRun topology is rebuilt from
// public constructors with timing decorators around cc.Controller, the Link
// (and the fault decorator when there is one) and the link's Receiver. Spans
// inside the program are a later change. TraceLink accepts only its own
// package's queue types, so a Queue cannot be decorated; queues are priced by
// their rungs and counted at the link boundary.

type spanKind uint8

const (
	spanRun         spanKind = iota // Sim.Run; self time = event heap + Source host duties
	spanCtrlTick                    // Controller.Tick
	spanCtrlOnAck                   // Controller.OnAck
	spanCtrlOnLoss                  // Controller.OnLoss
	spanCtrlTimeout                 // Controller.OnTimeout
	spanCtrlAllow                   // Controller.Allowance
	spanCtrlOnSend                  // Controller.OnSend
	spanFaultSend                   // faults.Link.Send, parent of the inner link's Send
	spanLinkSend                    // TraceLink.Send: enqueue
	spanFaultEgress                 // faults.Link egress, parent of the sink's Receive
	spanSinkRecv                    // Dispatcher → Sink.Receive: metrics, attribution, ack scheduling
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"netsim.core.run", "ctrl.tick", "ctrl.onack", "ctrl.onloss", "ctrl.ontimeout", "ctrl.allowance", "ctrl.onsend",
	"faults.send", "netsim.link.send", "faults.egress", "netsim.sink.recv",
}

// span is one timed call across a layer boundary. parent is the index of the
// enclosing span (-1 for a root); spans of one trial share its id.
type span struct {
	kind       spanKind
	trial      int32
	parent     int32
	start, end int64 // ns since the recorder started
}

// recorder keeps spans in memory; they are written out when the pass ends.
type recorder struct {
	t0    time.Time
	spans []span
	open  int32 // innermost open span
	trial int32
}

func newRecorder() *recorder { return &recorder{t0: time.Now(), open: -1} }

func (r *recorder) begin(k spanKind) int32 {
	i := int32(len(r.spans))
	r.spans = append(r.spans, span{kind: k, trial: r.trial, parent: r.open, start: int64(time.Since(r.t0))})
	r.open = i
	return i
}

func (r *recorder) end(i int32) {
	r.spans[i].end = int64(time.Since(r.t0))
	r.open = r.spans[i].parent
}

// spanAgg is one (trial, kind) cell of the aggregate: self = total minus the
// part of each span its child spans cover.
type spanAgg struct {
	Count   int64 `json:"count"`
	TotalNs int64 `json:"total_ns"`
	SelfNs  int64 `json:"self_ns"`
}

func (r *recorder) aggregate(trials int) [][numSpanKinds]spanAgg {
	agg := make([][numSpanKinds]spanAgg, trials)
	child := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range r.spans {
		a := &agg[s.trial][s.kind]
		a.Count++
		a.TotalNs += s.end - s.start
		a.SelfNs += s.end - s.start - child[i]
	}
	return agg
}

// maxSpansWritten caps the span file: a traced single flow records over a
// million spans; the first 200k show every kind and the aggregate covers all.
const maxSpansWritten = 200_000

func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, s := range r.spans {
		if i == maxSpansWritten {
			break
		}
		if err := enc.Encode(struct {
			ID     int    `json:"id"`
			Name   string `json:"name"`
			Trial  int32  `json:"trial"`
			Parent int32  `json:"parent"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
		}{i, spanNames[s.kind], s.trial, s.parent, s.start, s.end}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedCtrl times every decision a Source asks of its controller. Name,
// TickInterval and SendTag are constant-time reads and stay untimed.
type timedCtrl struct {
	cc.Controller
	rec *recorder
}

func (c *timedCtrl) Tick(now time.Duration) {
	i := c.rec.begin(spanCtrlTick)
	c.Controller.Tick(now)
	c.rec.end(i)
}

func (c *timedCtrl) OnAck(now time.Duration, ack cc.AckSample) {
	i := c.rec.begin(spanCtrlOnAck)
	c.Controller.OnAck(now, ack)
	c.rec.end(i)
}

func (c *timedCtrl) OnLoss(now time.Duration, loss cc.LossEvent) {
	i := c.rec.begin(spanCtrlOnLoss)
	c.Controller.OnLoss(now, loss)
	c.rec.end(i)
}

func (c *timedCtrl) OnTimeout(now time.Duration) {
	i := c.rec.begin(spanCtrlTimeout)
	c.Controller.OnTimeout(now)
	c.rec.end(i)
}

func (c *timedCtrl) Allowance(now time.Duration, inflight int) int {
	i := c.rec.begin(spanCtrlAllow)
	n := c.Controller.Allowance(now, inflight)
	c.rec.end(i)
	return n
}

func (c *timedCtrl) OnSend(now time.Duration, seq int64, inflight int) {
	i := c.rec.begin(spanCtrlOnSend)
	c.Controller.OnSend(now, seq, inflight)
	c.rec.end(i)
}

// timedLink times Send and counts at the boundary: packets offered and the
// deepest queue seen after an enqueue.
type timedLink struct {
	netsim.Link
	rec      *recorder
	kind     spanKind
	sends    int64
	depthMax int
}

func (l *timedLink) Send(p *netsim.Packet) {
	i := l.rec.begin(l.kind)
	l.Link.Send(p)
	l.rec.end(i)
	l.sends++
	if n := l.Link.Queue().Len(); n > l.depthMax {
		l.depthMax = n
	}
}

type timedRecv struct {
	netsim.Receiver
	rec  *recorder
	kind spanKind
}

func (t *timedRecv) Receive(p *netsim.Packet) {
	i := t.rec.begin(t.kind)
	t.Receiver.Receive(p)
	t.rec.end(i)
}

// decorated is what one decorated trial yields beside its RunResult.
type decorated struct {
	result experiments.RunResult
	// wallS covers what the twin's Run covers: construction, the run, and
	// collecting the result — not the drain that follows.
	wallS  float64
	counts map[string]float64
	checks []check
}

// runDecorated rebuilds tr's topology exactly as experiments.TraceRun.Run
// does — same constructors, same seeds, same construction order — with the
// decorators in place, runs it under a root span, and then stops the sources
// and drains the network to count packets that never returned to the pool.
func runDecorated(rec *recorder, tr experiments.TraceRun) decorated {
	t0 := time.Now()
	if tr.BaseOneWay == 0 {
		tr.BaseOneWay = 10 * time.Millisecond
	}
	if tr.QueueBytes == 0 {
		tr.QueueBytes = 1_500_000
	}
	sim := netsim.NewSim()
	ctrls := make([]cc.Controller, tr.Flows)
	specs := make([]netsim.FlowSpec, tr.Flows)
	for i := range specs {
		ctrls[i] = tr.Maker.New()
		specs[i] = netsim.FlowSpec{Ctrl: &timedCtrl{ctrls[i], rec}, AckDelay: tr.BaseOneWay}
	}
	var inner *netsim.TraceLink
	var innerTimed *timedLink
	mkInner := func(dst netsim.Receiver) netsim.Link {
		var q netsim.Queue
		if tr.UseRED {
			q = netsim.PaperRED(tr.Seed)
		} else {
			q = netsim.NewDropTail(tr.QueueBytes)
		}
		inner = netsim.NewTraceLink(sim, q, tr.Trace, tr.BaseOneWay, dst, true, tr.Seed+1)
		innerTimed = &timedLink{Link: inner, rec: rec, kind: spanLinkSend}
		return innerTimed
	}
	var flink *faults.Link
	d := netsim.NewDumbbell(sim, func(dst netsim.Receiver) netsim.Link {
		sink := &timedRecv{dst, rec, spanSinkRecv}
		if tr.Faults == nil {
			return mkInner(sink)
		}
		flink = faults.Wrap(sim, tr.Faults, tr.Seed+2, sink, func(tap netsim.Receiver) netsim.Link {
			return mkInner(&timedRecv{tap, rec, spanFaultEgress})
		})
		return &timedLink{Link: flink, rec: rec, kind: spanFaultSend}
	}, experiments.MTU, specs)
	var attrib stats.Attribution
	for _, s := range d.Sources {
		s.SetAttribution(&attrib)
	}

	root := rec.begin(spanRun)
	d.Run(tr.Duration)
	rec.end(root)

	out := decorated{counts: map[string]float64{}}
	for i, m := range d.Metrics {
		out.result.Flows = append(out.result.Flows, experiments.FlowResult{
			Flow: i, Mbps: m.MeanMbps(tr.Duration), DelayMean: m.Delay.Mean(), DelayP95: m.Delay.Percentile(95),
			Losses: m.LossDetected, Timeouts: m.Timeouts,
		})
		out.result.PerSecondMbps = append(out.result.PerSecondMbps, m.Throughput.Mbps())
		out.result.PerSecondDelay = append(out.result.PerSecondDelay, m.DelayOverTime.Means())
		out.counts["netsim.source.sent"] += float64(m.Sent)
		out.counts["netsim.source.loss_detected"] += float64(m.LossDetected)
		out.counts["netsim.source.timeouts"] += float64(m.Timeouts)
	}
	out.wallS = time.Since(t0).Seconds()
	drained := int64(0)
	if flink != nil {
		c := flink.Counters
		out.result.Faults = &c
		drained = c.QueueDrained
	}
	// Every packet offered to the link was rejected by the queue, is still
	// queued, was drained by an outage, or finished service.
	out.counts["netsim.queue.drops"] = float64(innerTimed.sends - inner.Delivered - inner.Lost - drained - int64(inner.Queue().Len()))
	out.counts["netsim.queue.depth_max_pkts"] = float64(innerTimed.depthMax)
	for _, c := range ctrls {
		if v, ok := c.(*verus.Verus); ok {
			epochs, _, _, refits := v.Stats()
			windows, _, _ := v.ProfileSnapshot()
			out.counts["verus.epochs"] += float64(epochs)
			out.counts["verus.refits"] += float64(refits)
			out.counts["verus.profile_knots"] += float64(len(windows))
		}
	}
	pool := sim.PoolStats()
	out.counts["pool.gets"] = float64(pool.Gets)
	out.counts["pool.allocated"] = float64(pool.Allocated)

	for _, s := range d.Sources {
		s.Stop()
	}
	d.Run(tr.Duration + 30*time.Second)
	live := sim.PoolStats().Live()
	out.counts["netsim.pool.live_end"] = float64(live)
	out.checks = append(out.checks,
		checkf("pool holds every packet after the drain: "+tr.Maker.Name, live == 0, "%d packets never released", live),
		checkf("attribution identity holds: "+tr.Maker.Name, attrib.Violations == 0 && attrib.Negatives == 0,
			"%d violations, %d negative components", attrib.Violations, attrib.Negatives))
	return out
}

// sectorStandIn is the topology the metro workloads' spans are recorded on.
// The metro topology is private to internal/experiments (metroBuild), so they
// are traced on a stand-in for one sector — MetroFlows/MetroSectors flows of
// each metro protocol on a 40 Mbps LTE cell with the metro's buffer — and
// their mesh, handover and checkpoint layers are explained by rungs × counts
// only.
func sectorStandIn(z sizes, seed int64) []experiments.TraceRun {
	s := subSeeds(seed, 1)[0]
	d := secs(z.MetroSimS)
	m := cellular.NewModel(cellular.Config{Tech: cellular.TechLTE, Operator: cellular.OperatorB, MeanMbps: 40, Seed: s})
	tr := m.Trace(d)
	var trials []experiments.TraceRun
	for _, mk := range []experiments.Maker{experiments.VerusMaker(6), experiments.CubicMaker(), experiments.SproutMaker()} {
		trials = append(trials, experiments.TraceRun{
			Trace: tr, Maker: mk, Flows: z.MetroFlows / z.MetroSectors, Duration: d,
			QueueBytes: 8_000_000, BaseOneWay: 10 * time.Millisecond, Seed: s,
		})
	}
	return trials
}

// workloadCounts are the per-layer counts read from the workload's public
// results; a layer the workload leaves idle reads 0.
var workloadCounts = []string{
	"faults.dropped", "faults.duplicated", "faults.reordered",
	"netsim.mesh.cross_msgs", "netsim.mesh.handovers",
	"obs.events_emitted", "ckpt_bytes", "sim_jain_min",
}

// traced is the traced run: the workload's own spans and counts, then every
// rung. End-to-end metrics are never taken from this pass.
func traced(w workload, cfg config) (*result, error) {
	res, err := tracedWorkload(w, cfg)
	if err != nil {
		return nil, err
	}
	rungs := map[string]float64{}
	if err := runRungs(cfg, rungs); err != nil {
		return nil, fmt.Errorf("rungs: %w", err)
	}
	for k, v := range rungs {
		res.set(k, v)
	}
	return res, nil
}

// tracedWorkload runs one public repetition of the workload for its counts
// and checks, then the decorated topology beside an undecorated twin.
func tracedWorkload(w workload, cfg config) (*result, error) {
	res := newResult(w, cfg)
	if cfg.nproc < 2 {
		res.Degraded = "nproc<shards"
	}
	run, _ := w.prepare(cfg.sizes, cfg.seed, cfg.tmp)
	first, wall, err := timedRun(run)
	if err != nil {
		return nil, err
	}
	res.Checks = append(res.Checks, first.checks...)
	res.RenderSHA256 = sha(first.render)
	res.Info["wall_s"] = wall
	res.addInfo(first.counts, first.timings)
	for _, name := range workloadCounts {
		res.set(name, first.counts[name])
	}
	res.set("sim_goodput_mbps", first.goodput)
	res.set("sim_delay_p95_ms", first.delayMs)
	res.set("obs.drop_ratio", 0)
	if e := first.counts["obs.events_emitted"]; e > 0 {
		res.set("obs.drop_ratio", 1-first.counts["obs.events_kept"]/e)
	}
	res.set("faults.slowpath_ratio", 0)
	if dl := first.counts["faults.delivered"]; dl > 0 {
		c := first.counts
		res.set("faults.slowpath_ratio", (c["faults.dropped"]+c["faults.duplicated"]+c["faults.reordered"]+c["faults.released"])/dl)
	}

	trials := w.spans(cfg.sizes, cfg.seed)
	rec := newRecorder()
	counts := map[string]float64{}
	var tracedWall, twinWall float64
	for i, tr := range trials {
		rec.trial = int32(i)
		dec := runDecorated(rec, tr)
		tracedWall += dec.wallS
		t0 := time.Now()
		twin := tr.Run()
		twinWall += time.Since(t0).Seconds()
		res.Checks = append(res.Checks, dec.checks...)
		res.Checks = append(res.Checks, checkf("decorated topology reproduces experiments.TraceRun: "+tr.Maker.Name,
			renderRun(dec.result) == renderRun(twin), "results differ"))
		for k, v := range dec.counts {
			counts[k] += v
		}
	}
	agg := rec.aggregate(len(trials))
	res.set("trace_overhead", tracedWall/twinWall)
	res.Info["traced_wall_s"] = tracedWall
	res.Info["twin_wall_s"] = twinWall
	res.Info["spans"] = float64(len(rec.spans))
	spanMetrics(res, agg, trials)
	for _, name := range []string{"netsim.source.sent", "netsim.source.loss_detected", "netsim.source.timeouts",
		"netsim.queue.drops", "netsim.queue.depth_max_pkts", "verus.epochs", "verus.refits", "verus.profile_knots",
		"netsim.pool.live_end"} {
		res.set(name, counts[name])
	}
	res.set("netsim.pool.miss_ratio", counts["pool.allocated"]/counts["pool.gets"])
	if err := os.MkdirAll(outDir(), 0o755); err != nil {
		return nil, err
	}
	if err := rec.write(filepath.Join(outDir(), w.name+".spans.jsonl")); err != nil {
		return nil, err
	}
	res.tally()
	return res, nil
}

// spanMetrics turns the span aggregate into the per-layer span metrics.
// Shares are of the root spans' time (Sim.Run) over the trials they cover;
// each recorded span costs two clock reads, which its parent's self time
// carries, so shares are upper bounds for the parents and trace_overhead says
// by how much.
func spanMetrics(res *result, agg [][numSpanKinds]spanAgg, trials []experiments.TraceRun) {
	var all, vs, sprouts [numSpanKinds]spanAgg
	var sproutSimS float64
	add := func(dst *[numSpanKinds]spanAgg, src *[numSpanKinds]spanAgg) {
		for k := range dst {
			dst[k].Count += src[k].Count
			dst[k].TotalNs += src[k].TotalNs
			dst[k].SelfNs += src[k].SelfNs
		}
	}
	for i, tr := range trials {
		add(&all, &agg[i])
		switch {
		case strings.HasPrefix(tr.Maker.Name, "Verus"):
			add(&vs, &agg[i])
		case tr.Maker.Name == "Sprout":
			add(&sprouts, &agg[i])
			sproutSimS += tr.Duration.Seconds()
		}
	}
	mean := func(a spanAgg) float64 {
		if a.Count == 0 {
			return 0
		}
		return float64(a.TotalNs) / float64(a.Count)
	}
	share := func(ns int64, of spanAgg) float64 {
		if of.TotalNs == 0 {
			return 0
		}
		return float64(ns) / float64(of.TotalNs)
	}
	var verusBusy int64
	for k := spanCtrlTick; k <= spanCtrlOnSend; k++ {
		verusBusy += vs[k].SelfNs
	}
	res.set("verus.tick_ns", mean(vs[spanCtrlTick]))
	res.set("verus.onack_ns", mean(vs[spanCtrlOnAck]))
	res.set("verus.busy_share", share(verusBusy, vs[spanRun]))
	res.set("sprout.ticks_per_sim_s", 0)
	if sproutSimS > 0 {
		res.set("sprout.ticks_per_sim_s", float64(sprouts[spanCtrlTick].Count)/sproutSimS)
	}
	res.set("netsim.link.self_share", share(all[spanLinkSend].SelfNs, all[spanRun]))
	res.set("netsim.sink.pkt_ns", mean(all[spanSinkRecv]))
	res.set("netsim.core.self_share", share(all[spanRun].SelfNs, all[spanRun]))
	for k, a := range all {
		if a.Count > 0 {
			res.Info["span."+spanNames[k]+".count"] = float64(a.Count)
			res.Info["span."+spanNames[k]+".self_share"] = share(a.SelfNs, all[spanRun])
		}
	}
}
