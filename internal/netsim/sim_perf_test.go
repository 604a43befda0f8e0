package netsim

import (
	"container/heap"
	"math/rand"
	"testing"
	"time"
)

// refHeap is the pre-PR2 event heap, verbatim: container/heap over a slice
// with interface boxing. It pins the 4-ary heap's pop order — (at, seq) is a
// strict total order, so any correct heap must produce the identical
// sequence.
type refEvent struct {
	at  time.Duration
	seq uint64
}

type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// TestHeapMatchesContainerHeap drives the Sim's 4-ary heap and the reference
// container/heap with the same randomized interleaving of pushes and pops
// (duplicate times included, so the seq tiebreak is load-bearing) and
// requires identical pop sequences.
func TestHeapMatchesContainerHeap(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		s := NewSim()
		var ref refHeap
		var seq uint64
		var got, want []refEvent
		for op := 0; op < 2000; op++ {
			if s.Pending() == 0 || rng.Intn(3) > 0 {
				at := time.Duration(rng.Intn(50)) // dense: many ties
				seq++
				s.push(event{at: at, seq: seq})
				heap.Push(&ref, refEvent{at: at, seq: seq})
			} else {
				e := s.pop()
				got = append(got, refEvent{e.at, e.seq})
				want = append(want, heap.Pop(&ref).(refEvent))
			}
		}
		for s.Pending() > 0 {
			e := s.pop()
			got = append(got, refEvent{e.at, e.seq})
			want = append(want, heap.Pop(&ref).(refEvent))
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: popped %d events, reference popped %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: pop %d = %+v, reference %+v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestScheduleZeroAllocs asserts the steady-state schedule/run cycle
// allocates nothing: pushing into warmed slice capacity and popping must not
// touch the allocator (the old container/heap boxed every event).
func TestScheduleZeroAllocs(t *testing.T) {
	s := NewSim()
	fn := func() {}
	// Warm the slice capacity past anything the loop below reaches.
	for i := 0; i < 256; i++ {
		s.Schedule(time.Duration(i), fn)
	}
	s.Run(time.Duration(256))
	next := time.Duration(256)
	allocs := testing.AllocsPerRun(1000, func() {
		next++
		s.Schedule(next, fn)
		s.Run(next)
	})
	if allocs != 0 {
		t.Errorf("steady-state Schedule+Run: %v allocs/run, want 0", allocs)
	}
}

// TestEveryTickZeroAllocs asserts a recurring timer's ticks allocate
// nothing: one timer object lives for the registration's lifetime and each
// firing reschedules the same entry.
func TestEveryTickZeroAllocs(t *testing.T) {
	s := NewSim()
	ticks := 0
	stop := s.Every(time.Millisecond, func() { ticks++ })
	defer stop()
	s.Run(10 * time.Millisecond) // warm
	until := 10 * time.Millisecond
	allocs := testing.AllocsPerRun(1000, func() {
		until += time.Millisecond
		s.Run(until)
	})
	if allocs != 0 {
		t.Errorf("steady-state Every tick: %v allocs/run, want 0", allocs)
	}
	if ticks < 1000 {
		t.Fatalf("timer did not tick (ticks=%d)", ticks)
	}
}

// TestEveryStopReleasesEntry pins the stop semantics across the timer
// rewrite: a stopped timer's already-queued entry drains without firing and
// without rescheduling.
func TestEveryStopReleasesEntry(t *testing.T) {
	s := NewSim()
	ticks := 0
	stop := s.Every(time.Millisecond, func() { ticks++ })
	s.Run(3 * time.Millisecond)
	if ticks != 3 {
		t.Fatalf("ticks = %d, want 3", ticks)
	}
	stop()
	s.Run(10 * time.Millisecond)
	if ticks != 3 {
		t.Errorf("ticks after stop = %d, want 3", ticks)
	}
	if got := s.Pending(); got != 0 {
		t.Errorf("stopped timer left %d pending events", got)
	}
}

// TestEveryStopFromCallback pins stopping a timer from inside its own
// callback: the current firing completes, no reschedule happens.
func TestEveryStopFromCallback(t *testing.T) {
	s := NewSim()
	ticks := 0
	var stop func()
	stop = s.Every(time.Millisecond, func() {
		ticks++
		if ticks == 2 {
			stop()
		}
	})
	s.Run(10 * time.Millisecond)
	if ticks != 2 {
		t.Errorf("ticks = %d, want 2 (stop from callback must halt rescheduling)", ticks)
	}
}

// TestFixedDelayHopZeroAllocs pins the lane path: once its ring is warm a
// fixed-delay packet hop — schedule, pop, deliver, recycle — allocates
// nothing, whatever the standing depth of the lane.
func TestFixedDelayHopZeroAllocs(t *testing.T) {
	s := NewSim()
	free := ReceiverFunc(func(p *Packet) { s.FreePacket(p) })
	const hop = 10 * time.Millisecond
	hopOnce := func() {
		s.SchedulePacketAfter(hop, free, s.NewPacket(0, 0, 1400, s.Now(), 0))
		s.Run(s.Now() + time.Millisecond)
	}
	for i := 0; i < 64; i++ {
		hopOnce() // warm: the lane settles at a depth of ten
	}
	if allocs := testing.AllocsPerRun(1000, hopOnce); allocs != 0 {
		t.Errorf("steady-state fixed-delay hop: %v allocs/run, want 0", allocs)
	}
	if len(s.events) != 0 {
		t.Errorf("fixed-delay hops left %d events on the heap; the lane should carry them", len(s.events))
	}
}

// TestSourceAckZeroAllocs pins the ack path at a window of 4096: the head
// pop, the controller callback, the loss scan and the packet that refills the
// window touch no allocator.
func TestSourceAckZeroAllocs(t *testing.T) {
	sim := NewSim()
	link := &sinkholeLink{sim: sim}
	src := &Source{Host: Host{ctrl: &fixedWindow{w: 4096}}, sim: sim, link: link, mtu: 1400, metrics: newFlowMetrics(0), started: true}
	src.trySend()
	next := int64(0)
	ackOnce := func() {
		link.sent = link.sent[:0]
		sim.Run(sim.Now() + 100*time.Microsecond)
		p := Packet{Seq: next, Bytes: 1400}
		next++
		src.onAck(&p)
	}
	for i := 0; i < 8192; i++ {
		ackOnce() // warm: twice round the ring
	}
	if allocs := testing.AllocsPerRun(1000, ackOnce); allocs != 0 {
		t.Errorf("ack at window 4096: %v allocs/run, want 0", allocs)
	}
	if src.inflight.n != 4096 || src.metrics.LossDetected != 0 {
		t.Fatalf("window not held: %d in flight, %d losses", src.inflight.n, src.metrics.LossDetected)
	}
}

// TestRegisteredCallbackZeroAllocs pins the registered-callback path: a
// FixedLink serving back-to-back packets re-arms its embedded served callback
// through SchedulePacket(…, nil) once per packet, and allocates nothing.
func TestRegisteredCallbackZeroAllocs(t *testing.T) {
	sim := NewSim()
	release := ReceiverFunc(func(p *Packet) { sim.FreePacket(p) })
	link := NewFixedLink(sim, NewDropTail(1<<20), 100, time.Millisecond, release, 1)
	const ser = 112 * time.Microsecond // 1400 B at 100 Mbps
	serveOnce := func() {
		link.Send(sim.NewPacket(1, 0, 1400, sim.Now(), 0))
		sim.Run(sim.Now() + ser)
	}
	for i := 0; i < 16; i++ {
		link.Send(sim.NewPacket(1, 0, 1400, sim.Now(), 0)) // a standing queue: service never idles
	}
	for i := 0; i < 64; i++ {
		serveOnce() // warm the heap, the lane and the pool
	}
	before := link.Delivered
	if allocs := testing.AllocsPerRun(1000, serveOnce); allocs != 0 {
		t.Errorf("steady-state served callback: %v allocs/run, want 0", allocs)
	}
	if served := link.Delivered - before; served < 1000 {
		t.Fatalf("link delivered %d packets over 1001 serialization times; the callback did not re-arm", served)
	}
}

// TestNewSourceAllocs pins a flow's sender at no allocation of its own: the
// Source is carved from the Sim's source arena and holds its sink, metrics,
// first delay samples, timers and events by value, and registers itself
// through typed receivers, so no event boxes a method value (the count was 6
// when it did, and 2 when the Source and its sample buffer were objects of
// their own). Builds are counted in batches of 100, so the arena's chunk
// allocations show amortized. Firing the flow's first events allocates
// nothing: start arms the tick and RTO timers in place, and a tick and an RTO
// poll reach the Source through the same receivers. The registry, the heap
// and the lanes are sized beforehand, so their amortized growth stays out of
// the counts.
func TestNewSourceAllocs(t *testing.T) {
	const runs = 100
	sim := NewSim()
	sim.reg.recvs = make([]Receiver, 0, 8*(2*runs+1))
	sim.reg.recvIDs = make(map[Receiver]int64, 4*(2*runs+1))
	sim.events = make([]event, 0, 4*(2*runs+1))
	for _, iv := range []time.Duration{5 * time.Millisecond, 10 * time.Millisecond} {
		for i := 0; i <= 2*runs+1; i++ {
			sim.Every(iv, func() {})() // open and size the lane, then stop
		}
	}
	sim.Run(time.Second)
	link := NewFixedLink(sim, NewDropTail(1<<20), 100, time.Millisecond, ReceiverFunc(sim.FreePacket), 1)
	ctrls := make([]fixedWindow, 2*runs)
	srcs := make([]*Source, 2*runs)
	next := 0
	// AllocsPerRun runs the batch once more before it counts: the warm-up
	// batch builds the first 100 Sources, the counted one the next 100.
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < runs; i++ {
			// Window zero: start arms the timers and sends nothing.
			ctrls[next].tick = 5 * time.Millisecond
			srcs[next], _ = NewSource(sim, next, &ctrls[next], link, 1400, time.Millisecond, time.Hour, 2*time.Hour)
			next++
		}
	}) / runs
	t.Logf("NewSource: %.2f allocs per build", allocs)
	if allocs > 0.05 {
		t.Errorf("NewSource: %v allocs per build amortized over %d, want at most 0.05 (the arena's chunks)", allocs, runs)
	}
	next = 0
	fire := testing.AllocsPerRun(runs, func() {
		s := srcs[next]
		s.startCB.Receive(nil)
		s.tickTimer.Receive(nil)
		s.rtoTimer.Receive(nil)
		next++
	})
	if fire != 0 {
		t.Errorf("firing a Source's start, tick and RTO poll: %v allocs, want 0", fire)
	}
	if n := sim.Pending(); n < 6*(runs+1) {
		t.Fatalf("%d events pending after %d starts; the timers did not arm", n, runs+1)
	}
	if ctrls[0].ticks != 1 {
		t.Fatalf("controller ticked %d times, want 1", ctrls[0].ticks)
	}
}

// TestSourceFirstRingAllocs pins a fresh Source's first window of in-flight
// sends at no allocation: NewSource points the scoreboard at the ring the
// Source holds, so the first firstRing sends record into it (each one
// allocated a 16-entry ring on the heap when the scoreboard started empty).
// The next send doubles the ring onto the heap, as before.
func TestSourceFirstRingAllocs(t *testing.T) {
	const runs = 10
	sim := NewSim()
	link := NewFixedLink(sim, NewDropTail(1<<20), 100, time.Millisecond, ReceiverFunc(sim.FreePacket), 1)
	srcs := make([]*Source, runs+1)
	for i := range srcs {
		srcs[i], _ = NewSource(sim, i, &fixedWindow{w: 2 * firstRing}, link, 1400, time.Millisecond, time.Hour, 0)
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		s := srcs[next]
		next++
		for i := 0; i < firstRing; i++ {
			s.Sent(time.Duration(i)*time.Millisecond, 2*firstRing)
		}
	})
	if allocs != 0 {
		t.Errorf("a fresh Source's first %d sends: %v allocs, want 0", firstRing, allocs)
	}
	for i, s := range srcs {
		if s.inflight.n != firstRing || &s.inflight.buf[0] != &s.ring[0] {
			t.Fatalf("Source %d: %d in flight, ring inline %v; want %d in its own ring", i, s.inflight.n, &s.inflight.buf[0] == &s.ring[0], firstRing)
		}
	}
	s := srcs[0]
	s.Sent(time.Second, 2*firstRing)
	if len(s.inflight.buf) != 2*firstRing || &s.inflight.buf[0] == &s.ring[0] || s.inflight.at(firstRing).seq != firstRing {
		t.Errorf("send %d: ring of %d, want the inline ring doubled to %d on the heap", firstRing+1, len(s.inflight.buf), 2*firstRing)
	}
}

// TestSourceArenaKeepsAddresses builds 1000 Sources on one Sim, across many
// chunks of its source arena, and requires that none moved: every returned
// pointer still holds its own flow, metrics and sink, and the registry
// resolves each one's start callback to that same Source.
func TestSourceArenaKeepsAddresses(t *testing.T) {
	const flows = 1000
	sim := NewSim()
	link := NewFixedLink(sim, NewDropTail(1<<20), 100, time.Millisecond, ReceiverFunc(sim.FreePacket), 1)
	srcs := make([]*Source, flows)
	for i := range srcs {
		var fm *FlowMetrics
		srcs[i], fm = NewSource(sim, i, &fixedWindow{w: 1}, link, 1400, time.Millisecond, time.Second, 0)
		if fm != srcs[i].metrics {
			t.Fatalf("flow %d: NewSource returned metrics outside its Source", i)
		}
	}
	for i, s := range srcs {
		if s.flow != i || s.metrics.Flow != i || s.metrics != &s.blk.m || s.sink.src != s {
			t.Fatalf("Source %d moved: it holds flow %d, metrics of flow %d", i, s.flow, s.metrics.Flow)
		}
		r, ok := sim.reg.lookup(s.startCB.id)
		if !ok {
			t.Fatalf("flow %d: start callback id %d is not registered", i, s.startCB.id)
		}
		cb, isCB := r.(*callback)
		if !isCB || cb != &s.startCB || cb.r != Receiver((*sourceStart)(s)) {
			t.Fatalf("flow %d: the registry resolves start callback id %d to %T, not this Source's start", i, s.startCB.id, r)
		}
	}
	if n := cap(sim.srcs); n > sourceChunkMax {
		t.Fatalf("the open chunk holds %d Sources, past the cap of %d", n, sourceChunkMax)
	}
}

// flowMetricsSink keeps newFlowMetrics' result on the heap under AllocsPerRun.
var flowMetricsSink *FlowMetrics

// TestNewFlowMetricsAllocs pins a flow's metrics at one allocation: the block
// holding the metrics, their three series and the delay summary's first
// samples. A Source or a CBR holds the block by value and pays nothing.
func TestNewFlowMetricsAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() { flowMetricsSink = newFlowMetrics(1) })
	if allocs > 1 {
		t.Errorf("newFlowMetrics: %v allocs, want at most 1", allocs)
	}
}

// TestConstructionAllocCeiling pins what building a flow and its link
// allocates, so a registered callback cannot quietly turn back into a box of
// its own per registration, nor a flow's metrics into one object per series.
// The count was 17 before callbacks were embedded in their owners, 15 before
// a flow's metrics became one block, 12 before events reached their owners
// through typed receivers and a Source became one block, 7 before Sources
// came from an arena with their first delay samples inline, and is 5 now;
// the ceiling is 6.
func TestConstructionAllocCeiling(t *testing.T) {
	sim := NewSim()
	q := NewDropTail(1 << 20)
	release := ReceiverFunc(func(p *Packet) { sim.FreePacket(p) })
	allocs := testing.AllocsPerRun(100, func() {
		link := NewFixedLink(sim, q, 100, time.Millisecond, release, 1)
		NewSource(sim, 1, &fixedWindow{w: 4}, link, 1400, time.Millisecond, time.Second, 2*time.Second)
	})
	if allocs > 6 {
		t.Errorf("NewFixedLink + NewSource: %v allocs, ceiling 6", allocs)
	}
}
