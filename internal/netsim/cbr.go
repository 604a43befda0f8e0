package netsim

import (
	"time"

	"repro/internal/obs"
	"repro/internal/snap"
)

// CBR is a constant-bit-rate sender with an optional ON/OFF duty cycle — the
// traffic generator behind the paper's §3 measurements (a UDP tool sending
// at fixed intervals) and the competing-traffic experiment of Fig. 3 (a
// second user "set to operate in ON/OFF periods of one minute intervals").
//
// A CBR is one block, laid out like a Source: its Sink, metrics and events
// are held by value, and the events reach run and halt through the named
// types cbrRun and cbrHalt.
type CBR struct {
	sim     *Sim
	flow    int
	link    Link
	mtu     int
	metrics *FlowMetrics

	interval time.Duration
	onFor    time.Duration // 0 = always on
	offFor   time.Duration
	nextSeq  int64
	stopped  bool
	// runCB is the one self-rescheduling send event and haltCB the stop
	// event, both registered so pending ones checkpoint.
	runCB, haltCB callback
	sink          Sink
	blk           flowMetricsBlock
}

// The CBR's events, each a Receiver that runs one CBR method.
type (
	cbrRun  CBR
	cbrHalt CBR
)

// Receive implements Receiver: the send event.
func (c *cbrRun) Receive(*Packet) { (*CBR)(c).run() }

// Receive implements Receiver: the stop event.
func (c *cbrHalt) Receive(*Packet) { (*CBR)(c).halt() }

// NewCBR creates a constant-rate flow of rateMbps using mtu-sized packets,
// starting at `start` and stopping at `stop` (0 = forever). When onFor and
// offFor are positive the flow alternates between sending for onFor and
// staying silent for offFor, beginning with an ON period.
func NewCBR(sim *Sim, flow int, link Link, mtu int, rateMbps float64,
	start, stop, onFor, offFor time.Duration) (*CBR, *FlowMetrics) {
	if rateMbps <= 0 {
		panic("netsim: CBR rate must be positive")
	}
	if mtu <= 0 {
		panic("netsim: MTU must be positive")
	}
	c := &CBR{
		sim:      sim,
		flow:     flow,
		link:     link,
		mtu:      mtu,
		interval: time.Duration(float64(mtu*8) / (rateMbps * 1e6) * float64(time.Second)),
		onFor:    onFor,
		offFor:   offFor,
	}
	c.metrics = c.blk.init(flow)
	c.sink = Sink{sim: sim, metrics: c.metrics} // no src: CBR needs no ACKs
	sim.RegisterReceiver(&c.sink)
	sim.register(&c.runCB, (*cbrRun)(c))
	sim.SchedulePacket(start, &c.runCB, nil)
	if stop > 0 {
		sim.register(&c.haltCB, (*cbrHalt)(c))
		sim.SchedulePacket(stop, &c.haltCB, nil)
	}
	return c, c.metrics
}

// halt ends the flow; it is the registered form of the old stop closure.
func (c *CBR) halt() { c.stopped = true }

// Sink returns the flow's receiver, to be registered with the link
// dispatcher.
func (c *CBR) Sink() Receiver { return &c.sink }

// Instrument attaches an observer to the flow's sink, as on Source.
func (c *CBR) Instrument(o *obs.Observer, run int64) {
	c.sink.obs = newSinkObs(o, run)
}

func (c *CBR) run() {
	if c.stopped {
		return
	}
	if c.onFor > 0 && c.offFor > 0 {
		cycle := c.onFor + c.offFor
		phase := c.sim.Now() % cycle
		if phase >= c.onFor {
			// In an OFF period: sleep until the next ON boundary.
			c.sim.SchedulePacket(c.sim.Now()+cycle-phase, &c.runCB, nil)
			return
		}
	}
	c.send()
	c.sim.SchedulePacket(c.sim.Now()+c.interval, &c.runCB, nil)
}

func (c *CBR) send() {
	p := c.sim.NewPacket(c.flow, c.nextSeq, c.mtu, c.sim.Now(), 0)
	c.nextSeq++
	c.metrics.Sent++
	c.link.Send(p)
}

// Walk implements snap.Walkable: sequence position, the stop flag, and the
// flow's metrics. The pending send (or ON-boundary wakeup) event is restored
// with the heap.
func (c *CBR) Walk(w snap.Walker) {
	w.Tag("cbr")
	w.I64(&c.nextSeq)
	w.Bool(&c.stopped)
	c.metrics.Walk(w)
}
