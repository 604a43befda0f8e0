package faults

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/snap"
	"repro/internal/stats"
)

// Link decorates a netsim.Link with a fault Plan. It interposes on both
// sides of the inner link: ingress (Send) to reject traffic during outages,
// and egress (the inner link's receiver) to apply loss, corruption,
// duplication, reordering, and stall buffering before packets reach the real
// destination. The inner link itself — its queue discipline, serialization,
// and conservation counters — is untouched.
//
// Link runs entirely inside the netsim event loop and is therefore
// single-goroutine, like everything else in the simulator.
type Link struct {
	sim   *netsim.Sim
	inner netsim.Link
	dst   netsim.Receiver
	// draws is the per-packet impairment stream; src is the counting source
	// behind its rng, making the stream position checkpointable.
	draws
	src *snap.Source

	inOutage bool
	inStall  bool
	held     []*netsim.Packet

	// reorderRecv is the one receiver reused for every reordered packet's
	// re-arrival, so reordering schedules no closures. It is a pointer type
	// (not a ReceiverFunc) so pending re-arrivals can checkpoint by id.
	reorderRecv *reorderTap

	// outageEnd/stallEnd are the window-end callbacks, registered at Wrap
	// so the pending end events checkpoint.
	outageEnd netsim.Receiver
	stallEnd  netsim.Receiver

	// passive is fixed at Wrap: the plan has no per-packet stochastic
	// impairment, so deliveries outside event windows never touch the RNG.
	passive bool
	// fast caches passive && !inOutage && !inStall — the egress fast path
	// that keeps a zero plan's per-packet cost to one branch (the ≤2%
	// no-fault budget, BenchmarkFixedLinkNoopWrapped). Recomputed on every
	// event toggle.
	fast bool

	// Observability: fault-window events only (begin/end), never per-packet
	// — the inner link already traces those. Nil when disabled.
	obs    *obs.Observer
	obsRun int64

	// Counters accounts every packet the decorator touches.
	Counters
}

// Instrument attaches an observer; fault-plan windows (outages, handovers)
// are emitted as begin/end event pairs labeled with run. Flow is -1: a
// fault window affects the whole link, not one flow.
func (l *Link) Instrument(o *obs.Observer, run int64) {
	l.obs = o
	l.obsRun = run
}

// emitFault records a fault-window edge when tracing is attached.
func (l *Link) emitFault(kind obs.Kind, str string, v0, v1 float64) {
	if l.obs == nil {
		return
	}
	l.obs.Emit(&obs.Event{At: l.sim.Now(), Kind: kind, Flow: -1, Run: l.obsRun,
		Str: str, V0: v0, V1: v1})
}

// Wrap builds the inner link via mk — pointed at the decorator's egress tap
// instead of dst — schedules the plan's timed events on sim, and returns the
// decorated link. A nil or zero plan yields a passthrough decorator whose
// per-packet cost is a few branch tests (≤2% end to end: compare
// BenchmarkFixedLinkBare with BenchmarkFixedLinkNoopWrapped).
//
// Event times in the plan are measured from the moment Wrap is called
// (normally simulation time zero). Wrap panics on an invalid plan, matching
// netsim's constructor convention.
func Wrap(sim *netsim.Sim, plan *Plan, seed int64, dst netsim.Receiver, mk func(dst netsim.Receiver) netsim.Link) *Link {
	if err := plan.Validate(); err != nil {
		panic(err)
	}
	if plan == nil {
		plan = &Plan{}
	}
	src := snap.NewSource(seed)
	l := &Link{
		sim:   sim,
		dst:   dst,
		draws: draws{plan: plan, rng: rand.New(src)},
		src:   src,
	}
	l.passive = !plan.stochastic()
	l.fast = l.passive
	l.reorderRecv = &reorderTap{l: l}
	sim.RegisterReceiver(l.reorderRecv)
	tap := &egressTap{l: l}
	sim.RegisterReceiver(tap)
	l.inner = mk(tap)
	l.outageEnd = sim.RegisterFunc(l.endOutage)
	l.stallEnd = sim.RegisterFunc(l.endStall)
	base := sim.Now()
	for _, ev := range plan.Events {
		switch ev.Kind {
		case Outage:
			sim.ScheduleTracked(base+ev.At, func() { l.startOutage(ev.Dur) })
		case Handover:
			sim.ScheduleTracked(base+ev.At, func() { l.startStall(ev.Dur) })
		}
	}
	return l
}

// egressTap is the receiver interposed between the inner link and the
// impairments; a pointer type so pending propagation deliveries checkpoint.
type egressTap struct{ l *Link }

// Receive implements netsim.Receiver.
func (t *egressTap) Receive(p *netsim.Packet) { t.l.egress(p) }

// reorderTap re-delivers a reordered packet after its extra delay.
type reorderTap struct{ l *Link }

// Receive implements netsim.Receiver.
func (t *reorderTap) Receive(p *netsim.Packet) {
	t.l.ReorderPending--
	t.l.arrive(p)
}

// Queue implements netsim.Link by exposing the inner link's buffer.
func (l *Link) Queue() netsim.Queue { return l.inner.Queue() }

// Send implements netsim.Link. During an outage the packet is discarded at
// ingress — the radio is gone, nothing reaches the bottleneck buffer.
func (l *Link) Send(p *netsim.Packet) {
	if l.inOutage {
		l.SendDropped++
		l.sim.FreePacket(p)
		return
	}
	l.inner.Send(p)
}

// updateFast recomputes the egress fast path after an event toggles.
func (l *Link) updateFast() {
	l.fast = l.passive && !l.inOutage && !l.inStall
}

// egress receives every packet the inner link delivers and routes it through
// the active impairments.
func (l *Link) egress(p *netsim.Packet) {
	if l.fast {
		l.Delivered++
		l.dst.Receive(p)
		return
	}
	if l.inOutage || l.inStall {
		// In service or propagating when the window opened: arrive drops
		// it, or holds it until the burst release.
		l.arrive(p)
		return
	}
	l.deliver(p)
}

// deliver applies the stochastic impairments — Gilbert-Elliott loss,
// corruption, reordering, duplication — and hands survivors to arrive.
func (l *Link) deliver(p *netsim.Packet) {
	if l.lost() {
		l.BurstLost++
		l.sim.FreePacket(p)
		return
	}
	if l.hit(l.plan.CorruptProb) {
		// The receiver's checksum rejects the mangled packet; in the
		// simulator that collapses to an accounted drop.
		l.Corrupted++
		l.sim.FreePacket(p)
		return
	}
	if l.hit(l.plan.ReorderProb) {
		l.Reordered++
		l.ReorderPending++
		// The extra reorder delay is fault-induced hold time.
		p.MarkDelay(l.sim.Now(), stats.DelayFaultHold)
		l.sim.SchedulePacketAfter(l.plan.ReorderDelay, l.reorderRecv, p)
		return
	}
	// The duplicate draw happens before p is handed downstream: once arrived,
	// p may already be released (a CBR sink frees on delivery), so the copy
	// must be cloned from it first. arrive consumes no randomness, so the
	// draw order stays the shared one. The clone is consumed in the branch
	// that takes it, which also lets poolleak verify its custody per path.
	if l.hit(l.plan.DupProb) {
		l.Duplicated++
		dup := l.sim.ClonePacket(p)
		l.arrive(p)
		l.arrive(dup)
		return
	}
	l.arrive(p)
}

// arrive is the final gate before the destination. A packet that was held
// back (reordering) re-checks the outage/stall state at its new delivery
// time.
func (l *Link) arrive(p *netsim.Packet) {
	if l.inOutage {
		l.EgressDropped++
		l.sim.FreePacket(p)
		return
	}
	if l.inStall {
		// Close the propagation or reorder interval and open a fault hold:
		// the stall, until the burst release, is charged to the fault.
		p.MarkDelay(l.sim.Now(), stats.DelayFaultHold)
		l.held = append(l.held, p)
		l.Held++
		return
	}
	l.Delivered++
	l.dst.Receive(p)
}

func (l *Link) startOutage(dur time.Duration) {
	l.inOutage = true
	l.updateFast()
	// Queue-drain semantics: the bottleneck buffer empties when the radio
	// bearer is torn down. Every drained packet is accounted — the netsim
	// conservation identity extends through the fault layer.
	q := l.inner.Queue()
	now := l.sim.Now()
	var drained float64
	for p := q.Dequeue(now); p != nil; p = q.Dequeue(now) {
		l.QueueDrained++
		drained++
		l.sim.FreePacket(p)
	}
	// A stall interrupted by an outage loses its held packets too.
	l.EgressDropped += int64(len(l.held))
	l.Held -= int64(len(l.held))
	for i, p := range l.held {
		l.sim.FreePacket(p)
		l.held[i] = nil
	}
	l.held = l.held[:0]
	l.emitFault(obs.KindFaultBegin, "outage", dur.Seconds(), drained)
	l.sim.SchedulePacket(l.sim.Now()+dur, l.outageEnd, nil)
}

// endOutage restores service when an outage window closes.
func (l *Link) endOutage() {
	l.inOutage = false
	l.updateFast()
	l.emitFault(obs.KindFaultEnd, "outage", 0, 0)
}

func (l *Link) startStall(dur time.Duration) {
	l.inStall = true
	l.updateFast()
	l.emitFault(obs.KindFaultBegin, "handover", dur.Seconds(), 0)
	l.sim.SchedulePacket(l.sim.Now()+dur, l.stallEnd, nil)
}

// endStall completes a handover: the stall lifts and the held buffer is
// burst-released. Released packets still face the stochastic impairments —
// they cross the air interface now.
func (l *Link) endStall() {
	l.inStall = false
	l.updateFast()
	held := l.held
	l.held = nil
	l.Held -= int64(len(held))
	l.Released += int64(len(held))
	l.emitFault(obs.KindFaultEnd, "handover", float64(len(held)), 0)
	for _, p := range held {
		l.deliver(p)
	}
}

// Walk implements snap.Walkable: the fault flags, the Gilbert-Elliott chain
// state, the impairment RNG position, the held (stalled) packets, the counter
// ledger, and the wrapped inner link. The pending window-begin and window-end
// events are restored with the heap.
func (l *Link) Walk(w snap.Walker) {
	w.Tag("faultlink")
	inner, ok := l.inner.(snap.Walkable)
	if !ok {
		w.Fail(fmt.Errorf("faults: inner link %T is not checkpointable", l.inner))
		return
	}
	w.Bool(&l.inOutage)
	w.Bool(&l.inStall)
	w.Bool(&l.geBad)
	l.src.Walk(w)
	n := w.Len(len(l.held))
	if w.Loading() {
		l.held = l.held[:0]
	}
	for i := 0; i < n && w.Err() == nil; i++ {
		var p *netsim.Packet
		if !w.Loading() {
			p = l.held[i]
		}
		if netsim.WalkListedPacket(w, &p) {
			l.held = append(l.held, p)
		}
	}
	for _, c := range l.fields() {
		w.I64(c)
	}
	if w.Loading() && w.Err() == nil {
		l.checkLoaded(w)
	}
	inner.Walk(w)
	if w.Loading() {
		l.updateFast()
	}
}

// checkLoaded fails a load whose ledger contradicts the state it restored:
// Held counts the held packets, packets are held only inside a stall, and
// no counter is negative.
func (l *Link) checkLoaded(w snap.Walker) {
	if l.Held != int64(len(l.held)) || len(l.held) > 0 && !l.inStall {
		w.Fail(fmt.Errorf("faults: faultlink snapshot holds %d packets with Held = %d, in stall %v",
			len(l.held), l.Held, l.inStall))
		return
	}
	for i, c := range l.fields() {
		if *c < 0 {
			w.Fail(fmt.Errorf("faults: faultlink snapshot has counter %d (ledger order) = %d", i, *c))
			return
		}
	}
}
