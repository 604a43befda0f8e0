package netsim

import (
	"fmt"
	"time"

	"repro/internal/cc"
	"repro/internal/obs"
	"repro/internal/snap"
	"repro/internal/stats"
)

// FlowMetrics aggregates what the paper reports per flow: delivered
// throughput (1-second windows, the Table 1 fairness granularity),
// per-packet one-way delay, and packet accounting.
type FlowMetrics struct {
	Flow int
	// Throughput is delivered bytes in 1 s windows at the sink.
	Throughput *stats.ThroughputSeries
	// Delay summarizes per-packet one-way delay in seconds (send to sink
	// arrival, including queueing).
	Delay *stats.Summary
	// DelayOverTime is the mean one-way delay per 1 s window.
	DelayOverTime *stats.WindowedMean
	// Sent, Received, LossDetected, Timeouts count packets and events.
	Sent, Received, LossDetected, Timeouts int64
}

// flowMetricsBlock is a flow's metrics, the three series they point at and
// the delay summary's first samples, laid out as one object so a flow's
// metrics cost no allocation of their own: a Source or a CBR holds its block
// by value.
type flowMetricsBlock struct {
	m   FlowMetrics
	tp  stats.ThroughputSeries
	d   stats.Summary
	dot stats.WindowedMean
	// dbuf holds the delay summary's first samples; the one past them moves
	// the summary to a buffer of its own. It is kept modest: at 100k-flow
	// metro scale each flow sees few packets, and a large one multiplies into
	// hundreds of MB of idle memory.
	dbuf [64]float64
}

// init sets b to zeroed metrics for a flow and returns them. The block must
// not move afterwards, since the delay summary records into its dbuf. The
// constructors inline, so copying their results into the block allocates
// nothing.
func (b *flowMetricsBlock) init(flow int) *FlowMetrics {
	b.tp = *stats.NewThroughputSeries(time.Second)
	b.d = *stats.NewSummaryIn(b.dbuf[:])
	b.dot = *stats.NewWindowedMean(time.Second)
	b.m = FlowMetrics{Flow: flow, Throughput: &b.tp, Delay: &b.d, DelayOverTime: &b.dot}
	return &b.m
}

// MeanMbps returns the flow's average delivered rate over the given horizon.
// Using the horizon rather than the spanned windows avoids over-crediting
// flows that stopped early.
func (m *FlowMetrics) MeanMbps(horizon time.Duration) float64 {
	if horizon <= 0 {
		return 0
	}
	return float64(m.Throughput.TotalBytes()) * 8 / horizon.Seconds() / 1e6
}

// Sink terminates a flow: it records delivery metrics and schedules the
// acknowledgement's arrival back at the source after the reverse-path delay.
type Sink struct {
	sim      *Sim
	metrics  *FlowMetrics
	ackDelay time.Duration
	src      *Source
	// attrib, when non-nil, receives each delivered packet's delay
	// decomposition (the metro harness shares one per home cell).
	attrib *stats.Attribution
	// obs, when non-nil, emits per-delivery attribution events and
	// histograms; nil is the disabled fast path.
	obs *sinkObs
}

// Receive implements Receiver.
func (k *Sink) Receive(p *Packet) {
	AssertLive(p, "Sink.Receive")
	now := k.sim.Now()
	oneWay := now - p.SentAt
	// Close the packet's final attribution interval; the component sum now
	// telescopes exactly to oneWay (integer nanoseconds).
	p.CloseDelay(now)
	k.metrics.Received++
	k.metrics.Throughput.Add(now, p.Bytes)
	k.metrics.Delay.Add(oneWay.Seconds())
	k.metrics.DelayOverTime.Add(now, oneWay.Seconds())
	comps := p.DelayComps()
	if k.attrib != nil {
		k.attrib.Record(comps, oneWay)
	}
	if k.obs != nil {
		k.obs.onAttrib(now, p, comps, oneWay)
	}
	if k.src == nil {
		// CBR flows have no feedback loop: delivery ends the packet's life.
		k.sim.FreePacket(p)
		return
	}
	// The delivered packet doubles as its own acknowledgement: it rides the
	// reverse path back to the Source (a Receiver), which releases it after
	// processing the ack. No closure, no ack object.
	k.sim.SchedulePacketAfter(k.ackDelay, k.src, p)
}

// outstanding tracks one unacknowledged packet at the source.
type outstanding struct {
	seq        int64
	sentAt     time.Duration
	window     int
	ackedAfter int // packets with higher seq acked since (dup-ack analogue)
}

// scoreboard is the sender's window of unacknowledged packets: a ring in
// send order, which is seq order. Acks come back in send order too, so the
// common ack pops the head, and an ack that overtook k older packets touches
// those k entries only — never the whole window.
//
// Two invariants carry the prefix scan in detectLosses: seqs ascend strictly
// from head to tail, and the entries with ackedAfter > 0 form a prefix (an
// ack bumps exactly the entries before it, new entries join at the tail with
// zero). A checkpoint load rejects a snapshot that breaks either.
type scoreboard struct {
	buf  []outstanding // power-of-two length; index with &(len-1)
	head int
	n    int
}

// at returns the i-th oldest entry.
func (b *scoreboard) at(i int) *outstanding {
	return &b.buf[(b.head+i)&(len(b.buf)-1)]
}

// firstRing is the length of a scoreboard's first ring: a Source's, which it
// holds inline, or the one a Host without a ring allocates on its first send.
const firstRing = 16

// push appends o at the tail, doubling the ring when full.
func (b *scoreboard) push(o outstanding) {
	if b.n == len(b.buf) {
		b.rehome(make([]outstanding, max(firstRing, 2*len(b.buf))))
	}
	b.n++
	*b.at(b.n - 1) = o
}

// rehome moves the entries, in order, to the front of buf, a ring of
// power-of-two length that holds them.
func (b *scoreboard) rehome(buf []outstanding) {
	for i := 0; i < b.n; i++ {
		buf[i] = *b.at(i)
	}
	b.buf, b.head = buf, 0
}

// closeGap removes entries [lo, hi) by sliding the lo entries before them up
// against entry hi and advancing the head: the cost is the prefix, not the
// window behind it.
func (b *scoreboard) closeGap(lo, hi int) {
	gap := hi - lo
	for i := lo - 1; i >= 0; i-- {
		*b.at(i + gap) = *b.at(i)
	}
	b.head = (b.head + gap) & (len(b.buf) - 1)
	b.n -= gap
}

// clear empties the window, keeping the ring.
func (b *scoreboard) clear() { b.head, b.n = 0, 0 }

// admit reports why a decoded entry may not follow the entries restored so
// far, or nil: it checks the invariants above and the range of each field.
func (b *scoreboard) admit(o outstanding, nextSeq int64) error {
	switch {
	case o.seq < 0 || o.seq >= nextSeq:
		return fmt.Errorf("seq %d outside [0, next seq %d)", o.seq, nextSeq)
	case b.n > 0 && o.seq <= b.at(b.n-1).seq:
		return fmt.Errorf("seq %d does not ascend past %d", o.seq, b.at(b.n-1).seq)
	case o.ackedAfter < 0 || o.ackedAfter >= dupThresh:
		return fmt.Errorf("ackedAfter %d outside [0, %d)", o.ackedAfter, dupThresh)
	case b.n > 0 && o.ackedAfter > 0 && b.at(b.n-1).ackedAfter == 0:
		return fmt.Errorf("acked past (ackedAfter %d) behind an entry no ack has passed", o.ackedAfter)
	}
	return nil
}

const (
	// dupThresh is the number of later acknowledgements after which a
	// missing packet is declared lost (TCP's three duplicate ACKs; the
	// Verus prototype uses a 3×delay timer — the host also applies a
	// per-packet timer of 3×SRTT for tail losses).
	dupThresh = 3
	// minRTO and maxRTO clamp the retransmission timeout. maxRTO must
	// comfortably exceed the deepest bufferbloat delay (multi-second on
	// cellular links, §2), or flows livelock in spurious-timeout loops.
	minRTO = 200 * time.Millisecond
	maxRTO = 60 * time.Second
)

// Host performs the host duties the cc.Controller interface leaves out, for a
// full-buffer sender: sequencing, per-packet send tags, RTT estimation,
// duplicate-ack and timer loss detection, and the retransmission timeout. It
// never retransmits: a lost packet is reported to the controller and the
// sequence moves on. Host does no I/O and reads no clock, so the simulator's
// Source and the UDP transport's Sender run the same one; only the timers that
// call it differ.
type Host struct {
	ctrl     cc.Controller
	nextSeq  int64
	inflight scoreboard // by value, so tracking allocates nothing steady-state
	srtt     time.Duration
	rttvar   time.Duration
	lastProg time.Duration // last forward progress, for RTO
	backoff  int           // consecutive RTOs without progress (exponential backoff)
}

// NewHost returns a host for ctrl with nothing in flight; the first RTO
// interval counts from now.
func NewHost(ctrl cc.Controller, now time.Duration) Host {
	return Host{ctrl: ctrl, lastProg: now}
}

// Allowance is how many packets the controller lets the host send now.
func (h *Host) Allowance(now time.Duration) int { return h.ctrl.Allowance(now, h.inflight.n) }

// NextSeq is the sequence number the next recorded send takes.
func (h *Host) NextSeq() int64 { return h.nextSeq }

// Sent records that packet NextSeq left now, stamped with window, the
// controller's SendTag, and tells the controller.
func (h *Host) Sent(now time.Duration, window int) {
	seq := h.nextSeq
	h.nextSeq++
	h.inflight.push(outstanding{seq: seq, sentAt: now, window: window})
	h.ctrl.OnSend(now, seq, h.inflight.n)
}

// Ack takes the acknowledgement of seq, a packet of the given size, arriving
// now. An ack that matches nothing in flight (a duplicate, or one for a packet
// already declared lost or cleared by a timeout) changes nothing and returns
// ok false. Otherwise the host updates its RTT estimate, feeds the controller
// the ack, and applies the loss rules to the packets the ack passed. It
// returns the RTT sample and the number of losses declared.
func (h *Host) Ack(now time.Duration, seq int64, bytes int) (rtt time.Duration, losses int, ok bool) {
	idx := 0
	for idx < h.inflight.n && h.inflight.at(idx).seq < seq {
		idx++
	}
	if idx == h.inflight.n || h.inflight.at(idx).seq != seq {
		return 0, 0, false
	}
	o := *h.inflight.at(idx)
	h.inflight.closeGap(idx, idx+1)
	rtt = now - o.sentAt
	h.updateRTT(rtt)
	h.lastProg = now
	h.backoff = 0

	h.ctrl.OnAck(now, cc.AckSample{
		Seq:        seq,
		RTT:        rtt,
		SentWindow: o.window,
		Inflight:   h.inflight.n,
		Bytes:      bytes,
	})

	// Dup-ack analogue: everything older than the acked packet has now been
	// "acked past" once more; declare losses at the threshold. Also run the
	// per-packet 3×SRTT timer the Verus prototype uses.
	return rtt, h.detectLosses(now, seq), true
}

// detectLosses scans the entries an ack for ackedSeq has passed and returns
// how many it declared lost. It stops at the first entry the ack did not pass
// and no earlier ack did either (seq > ackedSeq, ackedAfter == 0): by the
// scoreboard invariants every entry behind it is the same, and neither loss
// rule can fire on such an entry.
func (h *Host) detectLosses(now time.Duration, ackedSeq int64) int {
	timerCut := 3 * h.srtt
	inflight := h.inflight.n - 1 // what OnLoss reports: the window as scanned, less the lost packet
	// Survivors of the scanned prefix compact to its front (kept ≤ i); the
	// gap the lost ones leave is closed once, after the scan.
	kept, i := 0, 0
	for ; i < h.inflight.n; i++ {
		o := h.inflight.at(i)
		if o.seq > ackedSeq && o.ackedAfter == 0 {
			break
		}
		lost := false
		if o.seq < ackedSeq {
			o.ackedAfter++
			if o.ackedAfter >= dupThresh {
				lost = true
			}
		}
		if !lost && h.srtt > 0 && now-o.sentAt > timerCut && o.ackedAfter > 0 {
			lost = true
		}
		if lost {
			h.ctrl.OnLoss(now, cc.LossEvent{Seq: o.seq, SentWindow: o.window, Inflight: inflight})
			continue
		}
		if kept != i {
			*h.inflight.at(kept) = *o
		}
		kept++
	}
	if kept != i {
		h.inflight.closeGap(kept, i)
	}
	return i - kept
}

func (h *Host) updateRTT(rtt time.Duration) {
	if h.srtt == 0 {
		h.srtt = rtt
		h.rttvar = rtt / 2
		return
	}
	// RFC 6298 smoothing.
	diff := h.srtt - rtt
	if diff < 0 {
		diff = -diff
	}
	h.rttvar = (3*h.rttvar + diff) / 4
	h.srtt = (7*h.srtt + rtt) / 8
}

func (h *Host) rto() time.Duration {
	r := time.Second
	if h.srtt != 0 {
		// 2×srtt tolerates the RTT doubling within one round that slow
		// start over a filling buffer produces; rttvar alone lags it.
		r = 2*h.srtt + 4*h.rttvar
	}
	for i := 0; i < h.backoff && r < maxRTO; i++ {
		r *= 2 // exponential backoff after consecutive timeouts
	}
	if r < minRTO {
		r = minRTO
	}
	if r > maxRTO {
		r = maxRTO
	}
	return r
}

// CheckTimeout fires the retransmission timeout when packets are in flight
// and none has been acked for an RTO: the whole window is presumed lost, the
// backoff grows, and the controller hears OnTimeout. It reports whether the
// timeout fired.
func (h *Host) CheckTimeout(now time.Duration) bool {
	if h.inflight.n == 0 || now-h.lastProg < h.rto() {
		return false
	}
	h.inflight.clear()
	h.lastProg = now
	h.backoff++
	h.ctrl.OnTimeout(now)
	return true
}

// Backoff returns the number of consecutive timeouts without an ack, and the
// timeout the next check applies.
func (h *Host) Backoff() (n int, next time.Duration) { return h.backoff, h.rto() }

// walk visits the host state. A load validates each in-flight entry as it
// decodes: the prefix scan in detectLosses is only correct on a scoreboard
// that keeps its invariants, so a snapshot that breaks them is refused, not
// run. The ring grows as entries decode; a hostile length prefix runs out of
// bytes long before it runs up memory.
func (h *Host) walk(w snap.Walker, flow int) {
	w.I64(&h.nextSeq)
	n := w.Len(h.inflight.n)
	for i := 0; i < n && w.Err() == nil; i++ {
		var o outstanding
		if !w.Loading() {
			o = *h.inflight.at(i)
		}
		w.I64(&o.seq)
		w.Dur(&o.sentAt)
		w.Int(&o.window)
		w.Int(&o.ackedAfter)
		if !w.Loading() || w.Err() != nil {
			continue
		}
		if err := h.inflight.admit(o, h.nextSeq); err != nil {
			w.Fail(fmt.Errorf("netsim: source snapshot, flow %d, in-flight entry %d: %w", flow, i, err))
			return
		}
		h.inflight.push(o)
	}
	w.Dur(&h.srtt)
	w.Dur(&h.rttvar)
	w.Dur(&h.lastProg)
	w.Int(&h.backoff)
}

// Source is a full-buffer sender in the simulation: a Host driven by the
// simulator's timers, sending on a link and acked by its Sink.
//
// A Source is one block: it holds its Sink, its metrics, its timers and its
// start and stop events by value, and registers itself with each event
// through a pointer conversion to a named type (sourceStart, sourceStop,
// sourceTick, sourceRTO) whose Receive calls the matching method, so no
// event boxes a method value.
type Source struct {
	Host
	sim  *Sim
	flow int
	link Link
	mtu  int

	metrics *FlowMetrics

	stopped bool
	started bool
	// tickTimer and rtoTimer are the controller tick and the RTO poll, armed
	// in place when start fires.
	tickTimer, rtoTimer timer
	// startCB and stopCB are the registered start and stop events. The
	// timers armed when start fires derive their ids from startCB's
	// construction-order id (see snapshot.go).
	startCB, stopCB callback
	sink            Sink
	blk             flowMetricsBlock
	// ring is the in-flight scoreboard's first ring, so a flow's first
	// window costs no allocation; a larger window doubles it onto the heap.
	ring [firstRing]outstanding
}

// The Source's events, each a Receiver that runs one Source method.
type (
	sourceStart Source
	sourceStop  Source
	sourceTick  Source
	sourceRTO   Source
)

// Receive implements Receiver: the start event.
func (s *sourceStart) Receive(*Packet) { (*Source)(s).start() }

// Receive implements Receiver: the stop event.
func (s *sourceStop) Receive(*Packet) { (*Source)(s).Stop() }

// Receive implements Receiver: the controller tick.
func (s *sourceTick) Receive(*Packet) { (*Source)(s).onTick() }

// Receive implements Receiver: the RTO poll.
func (s *sourceRTO) Receive(*Packet) { (*Source)(s).checkRTO() }

// Derived-id slots for the timers a Source arms mid-run.
const (
	slotSourceTick = 1
	slotSourceRTO  = 2
)

// sourceChunkMax caps the Sources one chunk of a Sim's source arena holds:
// at 1640 bytes each on 64-bit platforms (1032 before the in-flight ring and
// the series' first windows moved inside), a Sim leaves at most ≈105 KB of
// it unused.
const sourceChunkMax = 64

// NewSource wires a controller into the simulation. The flow starts sending
// at `start` and stops at `stop` (0 = run forever). ackDelay is the
// reverse-path one-way delay, which together with the link's forward
// propagation delay forms the flow's base RTT. The Source is carved from the
// Sim's source arena, whose chunks double from one Source up to
// sourceChunkMax, so building many flows on one Sim allocates once per chunk
// and nothing per flow (TestNewSourceAllocs).
func NewSource(sim *Sim, flow int, ctrl cc.Controller, link Link, mtu int,
	ackDelay, start, stop time.Duration) (*Source, *FlowMetrics) {
	if mtu <= 0 {
		panic("netsim: MTU must be positive")
	}
	s := carve(&sim.srcs, 1, sourceChunkMax)
	*s = Source{Host: Host{ctrl: ctrl}, sim: sim, flow: flow, link: link, mtu: mtu}
	s.inflight.buf = s.ring[:]
	s.metrics = s.blk.init(flow)
	s.sink = Sink{sim: sim, metrics: s.metrics, ackDelay: ackDelay, src: s}
	sim.register(&s.startCB, (*sourceStart)(s))
	sim.RegisterReceiver(s)
	sim.RegisterReceiver(&s.sink)
	sim.SchedulePacket(start, &s.startCB, nil)
	if stop > 0 {
		sim.register(&s.stopCB, (*sourceStop)(s))
		sim.SchedulePacket(stop, &s.stopCB, nil)
	}
	return s, s.metrics
}

// start begins transmission: it arms the controller tick and RTO timers under
// ids derived from the source's construction-time id, then sends the first
// window.
func (s *Source) start() {
	s.started = true
	s.lastProg = s.sim.Now()
	if iv := s.ctrl.TickInterval(); iv > 0 {
		s.sim.arm(&s.tickTimer, derivedID(s.startCB.id, slotSourceTick), iv, (*sourceTick)(s))
	}
	s.sim.arm(&s.rtoTimer, derivedID(s.startCB.id, slotSourceRTO), 10*time.Millisecond, (*sourceRTO)(s))
	s.trySend()
}

// onTick drives the controller's periodic update (the Verus epoch).
func (s *Source) onTick() {
	if s.stopped {
		return
	}
	s.ctrl.Tick(s.sim.Now())
	s.trySend()
}

// Stop halts the flow (no further transmissions).
func (s *Source) Stop() {
	s.stopped = true
	s.tickTimer.stopped = true
	s.rtoTimer.stopped = true
}

// Sink returns the flow's receiver, to be registered with the link
// dispatcher.
func (s *Source) Sink() Receiver { return &s.sink }

// Instrument attaches an observer to the flow's sink: each delivery emits a
// net.attrib event carrying the packet's delay decomposition and feeds the
// per-component delay histograms, labeled by run. Nil leaves the sink on its
// disabled fast path.
func (s *Source) Instrument(o *obs.Observer, run int64) {
	s.sink.obs = newSinkObs(o, run)
}

// SetAttribution points the flow's sink at a shared attribution aggregate
// (per home cell in the metro harness). The aggregate must only ever be
// touched from this sink's timeline.
func (s *Source) SetAttribution(a *stats.Attribution) { s.sink.attrib = a }

// Receive implements Receiver: the Source is the terminus of the reverse
// path, consuming the delivered packet as its acknowledgement and releasing
// it back to the pool. The ack path is the flow path's release point for
// every packet that survives the network.
func (s *Source) Receive(p *Packet) {
	AssertLive(p, "Source ack")
	s.onAck(p)
	s.sim.FreePacket(p)
}

func (s *Source) trySend() {
	if s.stopped || !s.started {
		return
	}
	now := s.sim.Now()
	n := s.Allowance(now)
	for i := 0; i < n; i++ {
		p := s.sim.NewPacket(s.flow, s.nextSeq, s.mtu, now, s.ctrl.SendTag())
		s.Sent(now, p.Window)
		s.metrics.Sent++
		s.link.Send(p)
	}
}

// onAck processes the acknowledgement for packet p arriving now.
func (s *Source) onAck(p *Packet) {
	if s.stopped {
		return
	}
	if _, losses, ok := s.Ack(s.sim.Now(), p.Seq, p.Bytes); ok {
		s.metrics.LossDetected += int64(losses)
		s.trySend()
	}
}

func (s *Source) checkRTO() {
	if s.stopped || !s.CheckTimeout(s.sim.Now()) {
		return
	}
	s.metrics.Timeouts++
	s.trySend()
}

// Walk visits the flow's accumulated metrics.
func (m *FlowMetrics) Walk(w snap.Walker) {
	w.Tag("flowmetrics")
	m.Throughput.Walk(w)
	m.Delay.Walk(w)
	m.DelayOverTime.Walk(w)
	w.I64(&m.Sent)
	w.I64(&m.Received)
	w.I64(&m.LossDetected)
	w.I64(&m.Timeouts)
}

// walkSender visits the sender protocol state: the host's, then the
// Source's own flags.
func walkSender(w snap.Walker, h *Host, stopped, started *bool, flow int) {
	h.walk(w, flow)
	w.Bool(stopped)
	w.Bool(started)
}

// Walk implements snap.Walkable: sender protocol state, the flow's metrics,
// and the controller's state (the controller must itself be Walkable).
// Pending ack deliveries, timer ticks, and the start/stop events live in the
// heap snapshot, not here.
//
// A load walks the sender state into a scratch copy with a ring of its own
// and commits it only once it decoded whole and valid, so a rejected snapshot
// leaves the sender as it was; a window the Source's inline ring holds moves
// back onto it. If the checkpoint was taken after the flow
// started, the tick and RTO timers are then re-registered under their derived
// ids (carrying the stopped flag) so the heap restore can resolve their
// pending tick events.
func (s *Source) Walk(w snap.Walker) {
	w.Tag("source")
	cs, ok := s.ctrl.(snap.Walkable)
	if !ok {
		w.Fail(fmt.Errorf("netsim: controller %T is not checkpointable (no Walk)", s.ctrl))
		return
	}
	if w.Loading() {
		tmp := struct {
			h                Host
			stopped, started bool
		}{h: Host{ctrl: s.ctrl}}
		walkSender(w, &tmp.h, &tmp.stopped, &tmp.started, s.flow)
		if w.Err() != nil {
			return
		}
		s.Host, s.stopped, s.started = tmp.h, tmp.stopped, tmp.started
		if s.inflight.n <= len(s.ring) {
			s.inflight.rehome(s.ring[:])
		}
	} else {
		walkSender(w, &s.Host, &s.stopped, &s.started, s.flow)
	}
	s.metrics.Walk(w)
	cs.Walk(w)
	if !w.Loading() || w.Err() != nil || !s.started {
		return
	}
	if iv := s.ctrl.TickInterval(); iv > 0 {
		s.sim.restoreTimer(&s.tickTimer, derivedID(s.startCB.id, slotSourceTick), iv, (*sourceTick)(s), s.stopped)
	}
	s.sim.restoreTimer(&s.rtoTimer, derivedID(s.startCB.id, slotSourceRTO), 10*time.Millisecond, (*sourceRTO)(s), s.stopped)
}
