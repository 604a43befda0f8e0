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

// TestNewSourceAllocs pins a flow's sender at two allocations, the Source
// and its delay summary's sample buffer: the Source holds its sink, metrics,
// timers and events by value and registers itself through typed receivers,
// so no event boxes a method value (the count was 6 when it did). Firing the
// flow's first events allocates nothing: start arms the tick and RTO timers
// in place, and a tick and an RTO poll reach the Source through the same
// receivers. The registry maps, the heap and the lanes are sized beforehand,
// so their amortized growth stays out of the counts.
func TestNewSourceAllocs(t *testing.T) {
	const runs = 100
	sim := NewSim()
	sim.reg.recvs = make(map[int64]Receiver, 8*(runs+1))
	sim.reg.recvIDs = make(map[Receiver]int64, 4*(runs+1))
	sim.events = make([]event, 0, 4*(runs+1))
	for _, iv := range []time.Duration{5 * time.Millisecond, 10 * time.Millisecond} {
		for i := 0; i <= 2*runs+1; i++ {
			sim.Every(iv, func() {})() // open and size the lane, then stop
		}
	}
	sim.Run(time.Second)
	link := NewFixedLink(sim, NewDropTail(1<<20), 100, time.Millisecond, ReceiverFunc(sim.FreePacket), 1)
	ctrls := make([]fixedWindow, runs+1)
	srcs := make([]*Source, runs+1)
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		// Window zero: start arms the timers and sends nothing.
		ctrls[next].tick = 5 * time.Millisecond
		srcs[next], _ = NewSource(sim, next, &ctrls[next], link, 1400, time.Millisecond, time.Hour, 2*time.Hour)
		next++
	})
	if allocs > 2 {
		t.Errorf("NewSource: %v allocs, want at most 2 (the Source and the delay summary's buffer)", allocs)
	}
	next = 0
	allocs = testing.AllocsPerRun(runs, func() {
		s := srcs[next]
		s.startCB.Receive(nil)
		s.tickTimer.Receive(nil)
		s.rtoTimer.Receive(nil)
		next++
	})
	if allocs != 0 {
		t.Errorf("firing a Source's start, tick and RTO poll: %v allocs, want 0", allocs)
	}
	if n := sim.Pending(); n < 6*(runs+1) {
		t.Fatalf("%d events pending after %d starts; the timers did not arm", n, runs+1)
	}
	if ctrls[0].ticks != 1 {
		t.Fatalf("controller ticked %d times, want 1", ctrls[0].ticks)
	}
}

// flowMetricsSink keeps newFlowMetrics' result on the heap under AllocsPerRun.
var flowMetricsSink *FlowMetrics

// TestNewFlowMetricsAllocs pins a flow's metrics at two allocations: the
// block holding the metrics and their three series, and the delay summary's
// sample buffer. A Source or a CBR holds the block by value and pays only
// the buffer.
func TestNewFlowMetricsAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() { flowMetricsSink = newFlowMetrics(1) })
	if allocs > 2 {
		t.Errorf("newFlowMetrics: %v allocs, want at most 2", allocs)
	}
}

// TestConstructionAllocCeiling pins what building a flow and its link
// allocates, so a registered callback cannot quietly turn back into a box of
// its own per registration, nor a flow's metrics into one object per series.
// The count was 17 before callbacks were embedded in their owners, 15 before
// a flow's metrics became one block, 12 before events reached their owners
// through typed receivers and a Source became one block, and is 7 now; the
// ceiling is 8.
func TestConstructionAllocCeiling(t *testing.T) {
	sim := NewSim()
	q := NewDropTail(1 << 20)
	release := ReceiverFunc(func(p *Packet) { sim.FreePacket(p) })
	allocs := testing.AllocsPerRun(100, func() {
		link := NewFixedLink(sim, q, 100, time.Millisecond, release, 1)
		NewSource(sim, 1, &fixedWindow{w: 4}, link, 1400, time.Millisecond, time.Second, 2*time.Second)
	})
	if allocs > 8 {
		t.Errorf("NewFixedLink + NewSource: %v allocs, ceiling 8", allocs)
	}
}
