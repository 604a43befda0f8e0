package netsim

import (
	"fmt"
	"time"

	"repro/internal/cc"
	"repro/internal/snap"
	"repro/internal/stats"
)

// Dispatcher routes packets leaving the shared bottleneck to per-flow sinks.
type Dispatcher struct {
	sinks map[int]Receiver
}

// NewDispatcher returns an empty dispatcher.
func NewDispatcher() *Dispatcher { return &Dispatcher{sinks: make(map[int]Receiver)} }

// Register adds a flow's sink.
func (d *Dispatcher) Register(flow int, r Receiver) { d.sinks[flow] = r }

// Receive implements Receiver.
func (d *Dispatcher) Receive(p *Packet) {
	if r, ok := d.sinks[p.Flow]; ok {
		r.Receive(p)
	}
}

// FlowSpec describes one flow in a dumbbell experiment.
type FlowSpec struct {
	// Ctrl is the congestion controller. Leave nil for a CBR flow.
	Ctrl cc.Controller
	// CBRMbps is the constant rate for CBR flows (Ctrl == nil).
	CBRMbps float64
	// OnFor/OffFor give CBR flows a duty cycle (both zero = always on).
	OnFor, OffFor time.Duration
	// AckDelay is the reverse-path one-way delay.
	AckDelay time.Duration
	// Start and Stop bound the flow's active period (Stop 0 = forever).
	Start, Stop time.Duration
	// MTU overrides the dumbbell's default packet size when positive.
	MTU int
	// Attrib, when non-nil, receives each delivered packet's delay
	// attribution, as Source.SetAttribution arranges.
	Attrib *stats.Attribution
}

// Dumbbell is the canonical topology of both the paper's OPNET evaluation
// and its §7 micro-benchmarks: N senders share a single bottleneck
// queue+link; every delivered packet is acknowledged back to its sender
// after the flow's reverse-path delay.
type Dumbbell struct {
	Sim        *Sim
	Link       Link
	Dispatcher *Dispatcher
	Sources    []*Source      // congestion-controlled flows (nil entries for CBR)
	CBRs       []*CBR         // CBR flows (nil entries for controlled)
	Metrics    []*FlowMetrics // one per flow, in spec order
}

// NewDumbbell assembles the topology. makeLink constructs the shared
// bottleneck given the dispatcher (so TraceLink and FixedLink can both be
// used). defaultMTU applies to flows that do not override it.
func NewDumbbell(sim *Sim, makeLink func(dst Receiver) Link, defaultMTU int, specs []FlowSpec) *Dumbbell {
	d := &Dumbbell{Sim: sim, Dispatcher: NewDispatcher()}
	// The dispatcher takes every bottleneck delivery, so it must be
	// registered for pending deliveries to survive a checkpoint. Its routing
	// table is static per topology and rebuilt, never serialized.
	sim.RegisterReceiver(d.Dispatcher)
	d.Link = makeLink(d.Dispatcher)
	for i, spec := range specs {
		mtu := defaultMTU
		if spec.MTU > 0 {
			mtu = spec.MTU
		}
		if spec.Ctrl != nil {
			src, m := NewSource(sim, i, spec.Ctrl, d.Link, mtu, spec.AckDelay, spec.Start, spec.Stop)
			src.sink.attrib = spec.Attrib
			d.Dispatcher.Register(i, src.Sink())
			d.Sources = append(d.Sources, src)
			d.CBRs = append(d.CBRs, nil)
			d.Metrics = append(d.Metrics, m)
			continue
		}
		cbr, m := NewCBR(sim, i, d.Link, mtu, spec.CBRMbps, spec.Start, spec.Stop, spec.OnFor, spec.OffFor)
		cbr.sink.attrib = spec.Attrib
		d.Dispatcher.Register(i, cbr.Sink())
		d.Sources = append(d.Sources, nil)
		d.CBRs = append(d.CBRs, cbr)
		d.Metrics = append(d.Metrics, m)
	}
	return d
}

// Run advances the simulation to the given time.
func (d *Dumbbell) Run(until time.Duration) { d.Sim.Run(until) }

// Walk implements snap.Walkable: sim core, bottleneck, every flow (a Source or
// CBR walk carries its metrics), then the event heap — the order the
// two-phase load depends on. The bottleneck link must itself be Walkable, and
// a load runs over a freshly rebuilt dumbbell.
func (d *Dumbbell) Walk(w snap.Walker) {
	w.Tag("dumbbell")
	d.Sim.WalkState(w)
	l, ok := d.Link.(snap.Walkable)
	if !ok {
		w.Fail(fmt.Errorf("netsim: dumbbell bottleneck %T is not checkpointable", d.Link))
		return
	}
	l.Walk(w)
	for i := range d.Sources {
		if d.Sources[i] != nil {
			d.Sources[i].Walk(w)
		} else {
			d.CBRs[i].Walk(w)
		}
	}
	d.Sim.WalkHeap(w)
}

// Snapshot saves the dumbbell into e.
func (d *Dumbbell) Snapshot(e *snap.Encoder) { d.Walk(snap.Save(e)) }

// Restore loads a freshly rebuilt dumbbell from dec.
func (d *Dumbbell) Restore(dec *snap.Decoder) { d.Walk(snap.Load(dec)) }
