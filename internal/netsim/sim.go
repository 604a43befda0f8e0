// Package netsim is a discrete-event network simulator, the substitute for
// the OPNET testbed in the Verus paper's trace-driven evaluation (§6.2) and
// for the tc-controlled dumbbell of the micro-evaluation (§7).
//
// The building blocks mirror the paper's topology: congestion-controlled
// Sources feed a shared bottleneck (a Queue drained by a Link whose service
// process is either a fixed rate or a recorded cellular trace); a Sink
// acknowledges every packet over a delayed return path; and per-flow metrics
// capture throughput and per-packet delay.
package netsim

import "time"

// event is one pending delivery: when it fires the Sim calls r.Receive(p).
// A packet hop carries its packet; every other event is a receiver that
// ignores its nil packet — a plain Schedule closure (thunk), a registered
// callback (callback) or a recurring timer (timer) — so the pending set
// holds one shape and step dispatches one way.
type event struct {
	at time.Duration
	// seq is the same-time tiebreaker: FIFO among same-time events. In a
	// standalone Sim it is a plain insertion counter. In a Mesh cell it is a
	// composite order key — the owning cell's id in the high bits, the
	// cell-local insertion counter in the low bits (see orderKey) — assigned
	// at creation time by whichever cell created the event. Creation-time
	// assignment is what makes the key independent of the executor: the
	// merged single-heap run and the sharded run order every event by the
	// exact same (at, seq) pair.
	seq uint64
	// r is a long-lived component, callback or timer, or a pointer-shaped
	// thunk, so scheduling boxes nothing: the steady state is
	// allocation-free.
	r Receiver
	p *Packet
}

// thunk is a plain Schedule closure as a receiver. A func value is
// pointer-shaped, so boxing it into an event allocates nothing. It is not
// registered, so a checkpoint cannot serialize it.
type thunk func()

// Receive implements Receiver.
func (f thunk) Receive(*Packet) { f() }

// callback is a long-lived callback registered under id, so a pending event
// that fires it checkpoints (see snapshot.go); firing it delivers nil to r.
// Its owner embeds it and passes itself as r through a pointer conversion to
// a named type (a Source's start is a *sourceStart), or RegisterFunc carves
// it from the registry's arena with a thunk as r. The registry keeps a
// pointer to the callback, and r is pointer-shaped: registering boxes
// nothing.
type callback struct {
	r  Receiver
	id int64
}

// Receive implements Receiver.
func (c *callback) Receive(*Packet) { c.r.Receive(nil) }

// cellSeqBits is the width of the cell-local counter inside a composite
// order key: 2^44 ≈ 1.7e13 events per cell before overflow, with the
// remaining 20 high bits holding the cell id (up to ~1M cells). A standalone
// Sim has id 0, so its keys are the bare counter — ordering is bit-for-bit
// what it was before meshes existed.
const cellSeqBits = 44

// cellSeqMask masks the cell-local counter out of a composite order key.
const cellSeqMask = (uint64(1) << cellSeqBits) - 1

// orderKey composes a cell id and a cell-local insertion counter into one
// uint64 that compares like the lexicographic pair (cell, seq). Panics on
// overflow of either field rather than silently corrupting event order.
func orderKey(cell uint32, seq uint64) uint64 {
	if seq > cellSeqMask {
		panic("netsim: cell event counter overflow")
	}
	if uint64(cell) > uint64(1)<<(64-cellSeqBits)-1 {
		panic("netsim: cell id overflows order key")
	}
	return uint64(cell)<<cellSeqBits | seq
}

// timer is the state of one recurring registration: a receiver that
// delivers nil to r and re-arms itself one interval on, claiming a fresh
// order key after r returns, so one timer serves the registration's
// lifetime. A component holds its timers by value and arms them in place
// (arm) with a typed conversion of itself as r, so arming allocates nothing;
// Every allocates one, with a thunk as r, for callers that own none. id is
// its registry id (zero for Every, which cannot be checkpointed). Setting
// stopped ends the registration: a pending tick drains without firing.
type timer struct {
	s        *Sim
	interval time.Duration
	r        Receiver
	stopped  bool
	id       int64
}

// Receive implements Receiver.
func (t *timer) Receive(*Packet) {
	if t.stopped {
		return
	}
	t.r.Receive(nil)
	if !t.stopped {
		t.s.pushFixed(t.interval, event{at: t.s.now + t.interval, seq: t.s.nextKey(), r: t})
	}
}

// eventLess orders events by (time, insertion sequence) — a strict total
// order, so the pop sequence is identical for any heap arity or layout.
func eventLess(a, b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// maxLanes bounds the fixed-delay lanes kept beside the heap. A topology
// uses a handful of distinct fixed delays (controller tick, RTO poll,
// propagation, ack path); anything past the bound simply stays on the heap.
const maxLanes = 8

// lane is a FIFO ring of pending events that were all scheduled at now+d for
// one fixed delay d. The clock never runs backwards and a cell's key counter
// only grows, so such events are created in (at, seq) order: appending at
// the tail keeps the ring sorted, its head is its minimum, and both ends are
// O(1) where the heap pays a sift. pushFixed checks the order on every
// append and sends anything that would break it to the heap instead, so a
// lane is sorted unconditionally — d only predicts that the check passes.
//
// The ring is written out here, as in pktRing and scoreboard, rather than
// shared through a generic type: a generic push is past the inlining budget,
// and the call it becomes measured 3.5 % on the single-flow benchmark.
type lane struct {
	d    time.Duration
	buf  []event // power-of-two length; index with &(len-1)
	head int
	n    int
}

// Sim is the event loop. The zero value is not usable; construct with NewSim.
// All simulation entities must be driven from a single goroutine.
//
// The pending set is a 4-ary heap in a flat []event: no container/heap
// interface boxing (which allocated on every push), shallower sift paths
// than a binary heap, and slice storage whose capacity is reused across
// push/pop cycles — steady-state scheduling allocates nothing. Fixed-delay
// hops and periodic ticks, most of the traffic, bypass it through the lanes;
// the next event is the minimum over the heap top and the lane heads, so the
// (at, seq) pop order is that of a single heap holding everything.
type Sim struct {
	now    time.Duration
	events []event
	seq    uint64
	// lanes[:nlanes] are the open lanes. minLane caches which lane's head is
	// the earliest (nil when all are empty) and minAt/minSeq that head's key,
	// so finding the next event compares one cached key with the heap top: a
	// lane costs nothing while it is empty or not at the front.
	lanes   [maxLanes]lane
	nlanes  int
	minLane *lane
	minAt   time.Duration
	minSeq  uint64
	// id is set when this Sim is one cell of a Mesh (see mesh.go). A
	// standalone Sim has id 0; every code path below then behaves exactly
	// as it did before meshes existed.
	id uint32
	// outbox buffers cross-cell messages originated by this cell while the
	// mesh is executing a sharded window; the coordinator drains it at the
	// next barrier. Only the goroutine executing this cell appends to it.
	outbox []crossMsg
	// pool is this Sim's packet free list (see pool.go). Owned per cell, so
	// sharded mesh execution recycles packets with no synchronization.
	pool packetPool
	// reg maps stable ids to the long-lived receivers — packet receivers,
	// callbacks, timers — a checkpoint needs to serialize heap entries (see
	// snapshot.go). It is touched at construction and restore time only —
	// never on the event hot path.
	reg simRegistry
	// srcs is the arena NewSource carves this Sim's Sources from.
	srcs []Source
}

// carve returns a zeroed element from the open chunk of arena, opening a new
// chunk when it is full. Carved elements are registered by address, so a
// full chunk is replaced, never grown: nothing carved ever moves. Chunks
// double from first elements up to limit, which bounds what an arena leaves
// unused.
func carve[T any](arena *[]T, first, limit int) *T {
	a := *arena
	if len(a) == cap(a) {
		a = make([]T, 0, min(max(first, 2*cap(a)), limit))
	}
	a = a[:len(a)+1]
	*arena = a
	return &a[len(a)-1]
}

// NewSim returns an empty simulation at time zero.
func NewSim() *Sim { return &Sim{} }

// Now returns the current simulated time.
func (s *Sim) Now() time.Duration { return s.now }

// push inserts e into the heap, restoring the invariant by sifting up.
func (s *Sim) push(e event) {
	s.events = append(s.events, e)
	i := len(s.events) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !eventLess(s.events[i], s.events[p]) {
			break
		}
		s.events[i], s.events[p] = s.events[p], s.events[i]
		i = p
	}
}

// pop removes and returns the heap's earliest event, sifting the displaced tail
// element down. The vacated slot is zeroed so the slice does not pin the
// receiver (and whatever it closes over) after the event has fired.
func (s *Sim) pop() event {
	ev := s.events[0]
	last := len(s.events) - 1
	s.events[0] = s.events[last]
	s.events[last] = event{}
	s.events = s.events[:last]
	n := last
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if eventLess(s.events[c], s.events[min]) {
				min = c
			}
		}
		if !eventLess(s.events[min], s.events[i]) {
			break
		}
		s.events[i], s.events[min] = s.events[min], s.events[i]
		i = min
	}
	return ev
}

// keyLess orders two (at, seq) keys as eventLess orders their events.
func keyLess(at time.Duration, seq uint64, bAt time.Duration, bSeq uint64) bool {
	if at != bAt {
		return at < bAt
	}
	return seq < bSeq
}

// laneFor returns the lane serving delay d: the one keyed d, else an empty
// lane re-keyed to d, else a newly opened one, else nil when all maxLanes
// are occupied by other delays.
func (s *Sim) laneFor(d time.Duration) *lane {
	for i := 0; i < s.nlanes; i++ {
		if s.lanes[i].d == d {
			return &s.lanes[i]
		}
	}
	for i := 0; i < s.nlanes; i++ {
		if s.lanes[i].n == 0 {
			s.lanes[i].d = d
			return &s.lanes[i]
		}
	}
	if s.nlanes == maxLanes {
		return nil
	}
	l := &s.lanes[s.nlanes]
	s.nlanes++
	l.d = d
	return l
}

// pushFixed inserts e, an event due d after the moment it was created, at
// the tail of the lane for d. It falls back to the heap when no lane is free
// or when e would not sort after the lane's tail (a restored event, or a
// caller whose delays are not fixed after all).
func (s *Sim) pushFixed(d time.Duration, e event) {
	l := s.laneFor(d)
	if l == nil {
		s.push(e)
		return
	}
	if l.n == 0 {
		if s.minLane == nil || keyLess(e.at, e.seq, s.minAt, s.minSeq) {
			s.minLane, s.minAt, s.minSeq = l, e.at, e.seq
		}
	} else if tail := &l.buf[(l.head+l.n-1)&(len(l.buf)-1)]; !keyLess(tail.at, tail.seq, e.at, e.seq) {
		s.push(e)
		return
	}
	if l.n == len(l.buf) {
		l.grow()
	}
	l.buf[(l.head+l.n)&(len(l.buf)-1)] = e
	l.n++
}

// grow doubles the ring, unrolling it to start at index zero.
func (l *lane) grow() {
	buf := make([]event, max(16, 2*len(l.buf)))
	for i := 0; i < l.n; i++ {
		buf[i] = l.buf[(l.head+i)&(len(l.buf)-1)]
	}
	l.buf, l.head = buf, 0
}

// popLane removes and returns the head of minLane, zeroing the vacated slot
// as pop does, and rescans the lane heads for the new earliest.
func (s *Sim) popLane() event {
	l := s.minLane
	e := l.buf[l.head]
	l.buf[l.head] = event{}
	l.head = (l.head + 1) & (len(l.buf) - 1)
	l.n--
	s.minLane = nil
	for i := 0; i < s.nlanes; i++ {
		l := &s.lanes[i]
		if l.n == 0 {
			continue
		}
		h := &l.buf[l.head]
		if s.minLane == nil || keyLess(h.at, h.seq, s.minAt, s.minSeq) {
			s.minLane, s.minAt, s.minSeq = l, h.at, h.seq
		}
	}
	return e
}

// laneFirst reports whether the earliest pending event is a lane head rather
// than the heap top; callers must have checked that something is pending.
func (s *Sim) laneFirst() bool {
	if s.minLane == nil {
		return false
	}
	return len(s.events) == 0 || keyLess(s.minAt, s.minSeq, s.events[0].at, s.events[0].seq)
}

// nextKey claims the next order key from this cell's insertion counter.
func (s *Sim) nextKey() uint64 {
	s.seq++
	return orderKey(s.id, s.seq)
}

// SchedulePacket delivers p to r at the given absolute simulated time,
// without allocating a closure. Times in the past are clamped to now, same
// as Schedule. p is nil for a receiver that is a callback: one RegisterFunc
// returned is scheduled as SchedulePacket(at, r, nil).
func (s *Sim) SchedulePacket(at time.Duration, r Receiver, p *Packet) {
	if at < s.now {
		at = s.now
	}
	s.push(event{at: at, seq: s.nextKey(), r: r, p: p})
}

// SchedulePacketAfter delivers p to r d from now. Callers pass a fixed
// per-hop delay (propagation, ack path, a reorder hold), so the event rides a
// lane; one that means an absolute time calls SchedulePacket.
func (s *Sim) SchedulePacketAfter(d time.Duration, r Receiver, p *Packet) {
	if d < 0 {
		d = 0
	}
	s.pushFixed(d, event{at: s.now + d, seq: s.nextKey(), r: r, p: p})
}

// Schedule runs fn at the given absolute simulated time. Times in the past
// are clamped to now (the event runs next).
func (s *Sim) Schedule(at time.Duration, fn func()) { s.SchedulePacket(at, thunk(fn), nil) }

// Every runs fn every interval, starting one interval from now, until the
// returned stop function is called. The registration is one timer object
// for its whole lifetime: each firing reschedules the same entry, so
// steady-state ticking allocates nothing.
func (s *Sim) Every(interval time.Duration, fn func()) (stop func()) {
	t := &timer{}
	s.arm(t, 0, interval, thunk(fn))
	return func() { t.stopped = true }
}

// arm starts the caller-owned timer t, overwriting whatever it held: its
// first tick, a delivery of nil to r, is one interval from now. A nonzero id
// registers t in this Sim's snapshot registry, making its pending tick
// serializable; zero leaves it unregistered. t must not move while it is
// armed.
func (s *Sim) arm(t *timer, id int64, interval time.Duration, r Receiver) {
	if interval <= 0 {
		panic("netsim: Every interval must be positive")
	}
	*t = timer{s: s, interval: interval, r: r, id: id}
	if id != 0 {
		s.reg.add(id, t)
	}
	s.pushFixed(interval, event{at: s.now + interval, seq: s.nextKey(), r: t})
}

// Run processes events in time order until the queue empties or the next
// event is beyond `until`, then advances the clock to `until`.
func (s *Sim) Run(until time.Duration) {
	for s.headBefore(until, true) {
		s.step()
	}
	if until > s.now {
		s.now = until
	}
}

// step pops and executes the earliest event, advancing the clock to it.
func (s *Sim) step() {
	var e event
	if s.laneFirst() {
		e = s.popLane()
	} else {
		e = s.pop()
	}
	s.now = e.at
	e.r.Receive(e.p)
}

// headBefore reports whether the earliest pending event falls strictly
// before horizon (or at/below it when inclusive), i.e. whether this cell has
// work inside the current conservative window.
func (s *Sim) headBefore(horizon time.Duration, inclusive bool) bool {
	var at time.Duration
	switch {
	case len(s.events) > 0:
		at = s.events[0].at
		if s.minLane != nil && s.minAt < at {
			at = s.minAt
		}
	case s.minLane != nil:
		at = s.minAt
	default:
		return false
	}
	if inclusive {
		return at <= horizon
	}
	return at < horizon
}

// headKey returns the (at, seq) key of the earliest pending event; callers
// must have checked that something is pending.
func (s *Sim) headKey() (time.Duration, uint64) {
	if s.laneFirst() {
		return s.minAt, s.minSeq
	}
	return s.events[0].at, s.events[0].seq
}

// runWindow executes every pending event strictly before horizon (or at/
// below it when inclusive) and then advances the clock to the horizon — the
// null-message advance: even an idle cell's clock reaches the window edge,
// which is what tells its peers they may proceed past it. It returns the
// number of events executed.
func (s *Sim) runWindow(horizon time.Duration, inclusive bool) (events uint64) {
	for s.headBefore(horizon, inclusive) {
		s.step()
		events++
	}
	if horizon > s.now {
		s.now = horizon
	}
	return events
}

// Pending returns the number of queued events (useful in tests).
func (s *Sim) Pending() int {
	n := len(s.events)
	for i := 0; i < s.nlanes; i++ {
		n += s.lanes[i].n
	}
	return n
}
