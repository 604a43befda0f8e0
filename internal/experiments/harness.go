// Package experiments contains one harness per table and figure of the
// paper's evaluation (§3, §6, §7), plus the fault scenarios and the metro
// sweep. Each harness builds its workload from the repository's substrates
// (cellular channel model, network simulator, protocol implementations),
// runs it, and renders the same rows or series the paper reports. Figures is
// the one table of them, read by cmd/verus-bench and the golden tests at
// each Scale; DESIGN.md §Experiments indexes it and EXPERIMENTS.md records
// paper-vs-measured outcomes.
//
// Every harness is deterministic given its options (seeded randomness only).
// Performance is measured by the committed benchmark (bash bench/run.sh).
package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/cc"
	"repro/internal/cellular"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sprout"
	"repro/internal/tcp"
	"repro/internal/trace"
	"repro/internal/verus"
)

// MTU is the paper's packet size.
const MTU = 1400

// Maker constructs fresh controllers: New one per flow, NewN n at once for a
// trial that builds all its flows together. Every Maker comes from slabMaker,
// so the two build the same controllers.
type Maker struct {
	Name string
	New  func() cc.Controller
	NewN func(n int) []cc.Controller
}

// slabMaker returns the Maker named name whose controllers come from slab, a
// package's constructor of n controllers in one slice: New is element 0 of a
// slab of one, and NewN hands out each element of a slab of n by address.
func slabMaker[T any, P interface {
	*T
	cc.Controller
}](name string, slab func(n int) []T) Maker {
	return Maker{
		Name: name,
		New:  func() cc.Controller { return P(&slab(1)[0]) },
		NewN: func(n int) []cc.Controller {
			cs, ctrls := slab(n), make([]cc.Controller, n)
			for i := range cs {
				ctrls[i] = P(&cs[i])
			}
			return ctrls
		},
	}
}

// verusMaker returns the Maker named name for Verus under cfg.
func verusMaker(name string, cfg verus.Config) Maker {
	return slabMaker[verus.Verus](name, func(n int) []verus.Verus { return verus.NewN(cfg, n) })
}

// VerusMaker returns a Maker for Verus with the given R.
func VerusMaker(r float64) Maker {
	cfg := verus.DefaultConfig()
	cfg.R = r
	return verusMaker(fmt.Sprintf("Verus (R=%g)", r), cfg)
}

// VerusStaticMaker returns Verus with a frozen delay profile (Fig. 15).
func VerusStaticMaker(r float64) Maker {
	cfg := verus.DefaultConfig()
	cfg.R = r
	cfg.StaticProfile = true
	return verusMaker(fmt.Sprintf("Verus (R=%g) static", r), cfg)
}

// CubicMaker returns a Maker for TCP Cubic.
func CubicMaker() Maker { return slabMaker("TCP Cubic", tcp.NewCubics) }

// NewRenoMaker returns a Maker for TCP NewReno.
func NewRenoMaker() Maker { return slabMaker("TCP NewReno", tcp.NewNewRenos) }

// VegasMaker returns a Maker for TCP Vegas.
func VegasMaker() Maker { return slabMaker("TCP Vegas", tcp.NewVegases) }

// SproutMaker returns a Maker for the Sprout-like forecaster.
func SproutMaker() Maker {
	return slabMaker("Sprout", func(n int) []sprout.Sprout { return sprout.NewN(sprout.DefaultConfig(), n) })
}

// FlowResult summarizes one flow of one run.
type FlowResult struct {
	Flow      int
	Mbps      float64
	DelayMean float64 // seconds, one-way
	DelayP95  float64
	Losses    int64
	Timeouts  int64
}

// RunResult summarizes one simulation run.
type RunResult struct {
	Flows []FlowResult
	// PerSecondMbps[i] is flow i's throughput in 1 s windows.
	PerSecondMbps [][]float64
	// PerSecondDelay[i] is flow i's mean delay per 1 s window (seconds).
	PerSecondDelay [][]float64
	// Faults holds the fault-injection counters when the run carried a
	// fault plan; nil otherwise.
	Faults *faults.Counters
}

// MeanMbps returns the mean across flows of per-flow throughput.
func (r RunResult) MeanMbps() float64 {
	if len(r.Flows) == 0 {
		return 0
	}
	var s float64
	for _, f := range r.Flows {
		s += f.Mbps
	}
	return s / float64(len(r.Flows))
}

// MeanDelay returns the mean across flows of per-flow mean one-way delay.
func (r RunResult) MeanDelay() float64 {
	if len(r.Flows) == 0 {
		return 0
	}
	var s float64
	for _, f := range r.Flows {
		s += f.DelayMean
	}
	return s / float64(len(r.Flows))
}

// Dumbbell describes one run of the evaluation's canonical topology: flows
// share one bottleneck queue drained by a recorded channel or a fixed-rate
// link. It is the single place the harnesses wire that topology; Build returns
// it wired but not yet run, so a caller can reach into it first (Fig. 11
// re-draws the link's parameters, Figs. 5 and 7 read their own controller).
type Dumbbell struct {
	// Trace drives the bottleneck; nil selects a fixed-rate link at RateMbps.
	Trace *trace.Trace
	// Loop replays Trace from its start when it runs out; otherwise the
	// channel goes silent.
	Loop     bool
	RateMbps float64
	// QueueBytes sizes a DropTail buffer (default 1.5 MB); ignored when RED is
	// set.
	QueueBytes int
	// RED selects the paper's OPNET RED configuration (3/9 Mbit, 10%).
	RED bool
	// OneWay is the bottleneck's propagation delay (default 10 ms).
	OneWay time.Duration
	// Flows are the senders in flow order, each with its controller (or CBR
	// rate), reverse delay and start. A zero AckDelay means OneWay.
	Flows []netsim.FlowSpec
	// Faults, when non-nil, wraps the bottleneck link in the fault-injection
	// decorator (internal/faults). Nil leaves the link untouched — the exact
	// pre-fault packet arithmetic, which is what keeps the committed golden
	// digests stable.
	Faults *faults.Plan
	// Seed seeds the RED queue, the link's loss draws (Seed for a fixed link,
	// Seed+1 for a trace link) and the fault layer (Seed+2).
	Seed int64
	// Obs, when non-nil, attaches the observability layer: the bottleneck
	// link traces the packet life cycle, fault windows emit begin/end events,
	// observable controllers register their counters and sinks emit delay
	// attributions — all labeled with run=Seed, flow=index. Nil keeps every
	// instrumentation point on its zero-cost fast path.
	Obs *obs.Observer
}

// Build wires the dumbbell at time zero without running it, in a fixed
// order: sim, dispatcher, inner link, fault wrap, sources in flow order, sink
// instrumentation.
func (s Dumbbell) Build() *netsim.Dumbbell {
	if s.OneWay == 0 {
		s.OneWay = 10 * time.Millisecond
	}
	if s.QueueBytes == 0 {
		s.QueueBytes = 1_500_000
	}
	sim := netsim.NewSim()
	flows := make([]netsim.FlowSpec, len(s.Flows))
	for i, f := range s.Flows {
		if f.AckDelay == 0 {
			f.AckDelay = s.OneWay
		}
		observe(s.Obs, f.Ctrl, s.Seed, i)
		flows[i] = f
	}
	inner := func(dst netsim.Receiver) netsim.Link {
		var q netsim.Queue
		if s.RED {
			q = netsim.PaperRED(s.Seed)
		} else {
			q = netsim.NewDropTail(s.QueueBytes)
		}
		if s.Trace == nil {
			l := netsim.NewFixedLink(sim, q, s.RateMbps, s.OneWay, dst, s.Seed)
			l.Instrument(s.Obs, s.Seed)
			return l
		}
		l := netsim.NewTraceLink(sim, q, s.Trace, s.OneWay, dst, s.Loop, s.Seed+1)
		l.Instrument(s.Obs, s.Seed)
		return l
	}
	d := netsim.NewDumbbell(sim, func(dst netsim.Receiver) netsim.Link {
		if s.Faults == nil {
			return inner(dst)
		}
		fl := faults.Wrap(sim, s.Faults, s.Seed+2, dst, inner)
		if s.Obs != nil {
			fl.Instrument(s.Obs, s.Seed)
		}
		return fl
	}, MTU, flows)
	if s.Obs != nil {
		for i, src := range d.Sources {
			if src != nil {
				src.Instrument(s.Obs, s.Seed)
			} else {
				d.CBRs[i].Instrument(s.Obs, s.Seed)
			}
		}
	}
	return d
}

// Run builds the dumbbell, runs it to horizon and collects per-flow results.
func (s Dumbbell) Run(horizon time.Duration) RunResult {
	return collect(s.run(horizon, nil), horizon)
}

// run builds the dumbbell on a Local of s.Obs, lets prepare (when non-nil)
// reach into the built topology, runs it to horizon and flushes the Local.
// It is the only place a dumbbell records through a Local, so every such run
// is flushed before its caller reads the tracer or the registry. A run on
// Build's topology records on s.Obs itself and needs no flush.
func (s Dumbbell) run(horizon time.Duration, prepare func(*netsim.Dumbbell)) *netsim.Dumbbell {
	local := s.Obs.Local()
	s.Obs = local
	d := s.Build()
	if prepare != nil {
		prepare(d)
	}
	d.Run(horizon)
	local.Flush()
	return d
}

// collect summarizes a dumbbell run to horizon, with the fault layer's
// counters when the bottleneck carries one.
func collect(d *netsim.Dumbbell, horizon time.Duration) RunResult {
	var out RunResult
	for i, m := range d.Metrics {
		out.Flows = append(out.Flows, FlowResult{
			Flow:      i,
			Mbps:      m.MeanMbps(horizon),
			DelayMean: m.Delay.Mean(),
			DelayP95:  m.Delay.Percentile(95),
			Losses:    m.LossDetected,
			Timeouts:  m.Timeouts,
		})
		out.PerSecondMbps = append(out.PerSecondMbps, m.Throughput.Mbps())
		out.PerSecondDelay = append(out.PerSecondDelay, m.DelayOverTime.Means())
	}
	if fl, ok := d.Link.(*faults.Link); ok {
		c := fl.Counters
		out.Faults = &c
	}
	return out
}

// TraceRun describes a trace-driven dumbbell run: n identical flows of one
// protocol over a shared queue drained by a looping recorded channel. It is
// shorthand for the Dumbbell it runs; Seed, Faults and Obs mean what they
// mean there.
type TraceRun struct {
	Trace    *trace.Trace
	Maker    Maker
	Flows    int
	Duration time.Duration
	// QueueBytes sizes a DropTail buffer; ignored when UseRED is set.
	QueueBytes int
	// UseRED selects the paper's OPNET RED configuration (3/9 Mbit, 10%).
	UseRED bool
	// BaseOneWay is the propagation delay each way (default 10 ms).
	BaseOneWay time.Duration
	Seed       int64
	Faults     *faults.Plan
	Obs        *obs.Observer
}

// Run executes the trace-driven dumbbell and collects per-flow results.
func (tr TraceRun) Run() RunResult { return tr.dumbbell().Run(tr.Duration) }

// dumbbell is the Dumbbell tr describes, with fresh controllers.
func (tr TraceRun) dumbbell() Dumbbell {
	flows := make([]netsim.FlowSpec, tr.Flows)
	for i := range flows {
		flows[i].Ctrl = tr.Maker.New()
	}
	return Dumbbell{
		Trace: tr.Trace, Loop: true, QueueBytes: tr.QueueBytes, RED: tr.UseRED,
		OneWay: tr.BaseOneWay, Flows: flows, Faults: tr.Faults, Seed: tr.Seed, Obs: tr.Obs,
	}
}

// observe attaches an observer to a controller when both sides agree: the
// observer is live and the controller implements obs.Observable (Verus does;
// the TCP and Sprout baselines run uninstrumented).
func observe(o *obs.Observer, ctrl cc.Controller, run int64, flow int) {
	if o == nil {
		return
	}
	if ob, ok := ctrl.(obs.Observable); ok {
		ob.Observe(o, run, flow)
	}
}

// cellTrace generates a shared-cell capacity trace for the given technology
// and scenario at totalMbps aggregate capacity.
func cellTrace(tech cellular.Tech, sc cellular.Scenario, totalMbps float64, d time.Duration, seed int64) *trace.Trace {
	m := cellular.NewModel(cellular.Config{
		Tech:     tech,
		Operator: cellular.OperatorB,
		Scenario: sc,
		MeanMbps: totalMbps / sc.RateFactor, // cancel the scenario factor: totalMbps is the target
		Seed:     seed,
	})
	return m.Trace(d)
}

// table renders rows of label → columns as fixed-width text.
func table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cols []string) {
		for i, c := range cols {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}
