package netsim

import (
	"fmt"
	"reflect"
	"time"

	"repro/internal/snap"
	"repro/internal/stats"
)

// Checkpoint/restore for the simulation core (DESIGN.md §Checkpoint).
//
// The event heap holds receivers — components, callbacks, timers — which no
// codec can serialize. The snapshot subsystem therefore uses a
// rebuild-and-patch scheme: a restore first re-runs the deterministic
// topology construction (same config, same seed), which re-creates every
// component, closure, and receiver and re-registers them under the same
// stable ids — construction order is deterministic, so the id sequence is
// too. The restore then clears the rebuilt heaps, overwrites each
// component's mutable fields, and finally pushes the snapshot's events with
// their exact saved (time, order key) pairs, resolving each id through the
// one registry. Heap array layout is irrelevant: (time, key) is a strict
// total order, so any valid heap pops the identical event sequence.
//
// Id discipline: construction-time registrations draw ids from a per-Sim
// counter (nextID), which both the original run and the rebuild advance
// identically. Objects created mid-run (a Source's timers, armed when its
// start event fires) must NOT draw from the counter — mid-run draw order
// would depend on event interleaving across components. They instead derive
// ids from their owner's construction-time id and a fixed slot (derivedID),
// making every id a pure function of the topology.

// simRegistry maps stable ids to the long-lived receivers heap entries
// reference: packet receivers, callbacks and timers share one id space.
// Counter-drawn ids are positive and derived ids negative, so the two never
// collide. recvIDs is the reverse map for packet receivers only; a callback
// or timer carries its own id.
type simRegistry struct {
	nextID int64
	// recvs[id-1] is the receiver registered under counter-drawn id: those
	// ids are drawn dense from 1, each registered as it is drawn, and the
	// slice starts at 16. derived holds the receivers registered under
	// derived ids.
	recvs   []Receiver
	derived map[int64]Receiver
	recvIDs map[Receiver]int64
	// cbs is the arena registered callbacks are carved from (see carve).
	cbs []callback
}

// callbackChunkMax caps the callbacks one chunk of the registry's arena
// holds.
const callbackChunkMax = 4096

// derivedID composes an owner's construction-time id with a fixed slot into
// a mid-run-safe registry id. Derived ids are negative; counter-drawn ids
// are positive — the two spaces cannot collide.
func derivedID(owner, slot int64) int64 {
	if slot <= 0 || slot > 15 {
		panic("netsim: derived id slot out of range")
	}
	return -(owner<<4 | slot)
}

func (r *simRegistry) add(id int64, rcv Receiver) {
	if _, dup := r.lookup(id); dup {
		panic(fmt.Sprintf("netsim: duplicate registration id %d", id))
	}
	if id < 0 {
		if r.derived == nil {
			// Derived ids arrive once construction is done: a Source draws
			// three or four ids and derives two, so half the drawn ids is
			// room for them all without a rehash.
			r.derived = make(map[int64]Receiver, len(r.recvs)/2)
		}
		r.derived[id] = rcv
		return
	}
	if r.recvs == nil {
		r.recvs = make([]Receiver, 0, 16)
	}
	for int64(len(r.recvs)) < id {
		r.recvs = append(r.recvs, nil)
	}
	r.recvs[id-1] = rcv
}

// lookup returns the receiver registered under id, and whether there is one.
func (r *simRegistry) lookup(id int64) (Receiver, bool) {
	if id < 0 {
		rcv, ok := r.derived[id]
		return rcv, ok
	}
	if id == 0 || id > int64(len(r.recvs)) || r.recvs[id-1] == nil {
		return nil, false
	}
	return r.recvs[id-1], true
}

// nextID draws the next construction-order id. Draw ids only during
// topology setup — never from event callbacks (see the id discipline above).
func (s *Sim) nextID() int64 {
	s.reg.nextID++
	return s.reg.nextID
}

// RegisterReceiver registers r under a construction-order id and returns the
// id; registering the same receiver again returns the existing id without
// drawing a new one. Receivers must be comparable (pointer types) —
// ReceiverFunc adapters are rejected. Registration is what lets a pending
// packet delivery to r survive a checkpoint.
func (s *Sim) RegisterReceiver(r Receiver) int64 {
	if !reflect.TypeOf(r).Comparable() {
		panic(fmt.Sprintf("netsim: receiver %T is not comparable and cannot be registered; use a pointer receiver, not a func adapter", r))
	}
	if id, ok := s.reg.recvIDs[r]; ok {
		return id
	}
	id := s.nextID()
	s.reg.add(id, r)
	if s.reg.recvIDs == nil {
		s.reg.recvIDs = make(map[Receiver]int64)
	}
	s.reg.recvIDs[r] = id
	return id
}

// register binds the callback c, embedded in its long-lived owner, to r
// under a fresh construction-order id: firing c delivers nil to r. The owner
// passes a typed conversion of itself as r, and the registry keeps c itself,
// so registering allocates nothing.
func (s *Sim) register(c *callback, r Receiver) {
	c.r, c.id = r, s.nextID()
	s.reg.add(c.id, c)
}

// RegisterFunc registers a long-lived callback under a construction-order id
// and returns it as a Receiver: SchedulePacket(at, r, nil) then schedules it
// checkpointably. Call it once per callback at construction time and keep
// the receiver — each call draws a fresh id. The callback holds fn as a
// thunk, which is pointer-shaped, so a call allocates nothing beyond fn.
func (s *Sim) RegisterFunc(fn func()) Receiver { return s.registerCallback(thunk(fn)) }

// registerCallback carves a callback from the registry's arena and binds it
// to r under a fresh construction-order id.
func (s *Sim) registerCallback(r Receiver) *callback {
	c := carve(&s.reg.cbs, 16, callbackChunkMax)
	s.register(c, r)
	return c
}

// ScheduleCallback schedules a setup-time one-shot delivery of nil to r at
// the absolute time at, as a callback that survives a checkpoint: the
// callback is carved from the registry's arena, registered under a fresh
// construction-order id and scheduled as SchedulePacket schedules it. The
// registry names the callback, not r, so r need not be comparable; a pointer
// (or a func-typed receiver) is pointer-shaped, so holding it boxes nothing
// and a call allocates nothing beyond r and the arena's chunks. The metro
// harness schedules every handover this way.
func (s *Sim) ScheduleCallback(at time.Duration, r Receiver) {
	s.SchedulePacket(at, s.registerCallback(r), nil)
}

// ScheduleTracked is Schedule for setup-time one-shot closures that must
// survive a checkpoint: ScheduleCallback with the closure as a thunk. Key
// claiming is identical to Schedule.
func (s *Sim) ScheduleTracked(at time.Duration, fn func()) { s.ScheduleCallback(at, thunk(fn)) }

// restoreTimer re-creates a component's timer t in place during a load: t is
// registered under id so the heap load can resolve pending tick events, but
// nothing is pushed — the pending tick, if any, arrives with the heap.
func (s *Sim) restoreTimer(t *timer, id int64, interval time.Duration, r Receiver, stopped bool) {
	*t = timer{s: s, interval: interval, r: r, stopped: stopped, id: id}
	s.reg.add(id, t)
}

// WalkState visits this Sim's core mutable state: virtual clock, order-key
// counter, and packet-pool accounting. The registry id counter is fixed by
// the topology construction, so a rebuild that drew a different number of ids
// diverged from the checkpointed one. The event heap is walked separately
// (WalkHeap) because a load happens in two phases: core state and components
// first — re-registering mid-run timers — then the heap, which resolves ids
// against the registry.
//
// Gets/Frees load wholesale, so once WalkHeap and the component walks have
// rematerialized every live packet through the non-counting path, Live() is
// conserved exactly. The free list loads as a depth only (packetPool.owed):
// the pool's miss/reuse trajectory — and therefore Allocated — continues
// exactly as the uninterrupted run's would, and a hostile depth costs
// nothing. A load also clears the rebuilt event heap: its entries were all
// re-claimed by the deterministic rebuild and WalkHeap replaces them verbatim.
func (s *Sim) WalkState(w snap.Walker) {
	w.Tag("simcore")
	w.Dur(&s.now)
	w.U64(&s.seq)
	w.SameI64(s.reg.nextID, "netsim: registry ids drawn by the topology construction")
	w.U64(&s.pool.stats.Allocated)
	w.U64(&s.pool.stats.Gets)
	w.U64(&s.pool.stats.Frees)
	depth := w.Len(len(s.pool.free) + s.pool.owed)
	if !w.Loading() {
		return
	}
	clear(s.pool.free)
	s.pool.free, s.pool.owed = s.pool.free[:0], depth
	clear(s.events)
	s.events = s.events[:0]
	s.lanes, s.nlanes, s.minLane = [maxLanes]lane{}, 0, nil
	s.outbox = s.outbox[:0]
}

// Event kind bytes in a heap snapshot.
const (
	snapEvFunc   = 0
	snapEvTimer  = 1
	snapEvPacket = 2
)

// WalkHeap visits every pending event as one list: the heap array, then each
// lane from head to tail. Each entry keeps its exact (time, order key) pair;
// callbacks serialize as registry ids, packet deliveries as (receiver id,
// packet fields). Unlike a component's fields the two directions are not
// mirror images — a save turns pointers into ids wherever the event sits, a
// load resolves ids and re-sifts — so they stay a hand-written pair.
func (s *Sim) WalkHeap(w snap.Walker) {
	w.Tag("heap")
	n := w.Len(s.Pending())
	if w.Loading() {
		s.loadHeap(w, n)
		return
	}
	for i := range s.events {
		s.saveEvent(w, &s.events[i])
	}
	for i := 0; i < s.nlanes; i++ {
		l := &s.lanes[i]
		for j := 0; j < l.n; j++ {
			s.saveEvent(w, &l.buf[(l.head+j)&(len(l.buf)-1)])
		}
	}
}

// saveEvent writes one pending event. Its kind byte follows from the
// receiver's type: a callback or timer writes the id it carries, a packet
// receiver the id the reverse map holds. An event the registry cannot name
// fails the snapshot with a named error — a checkpoint either captures
// everything or nothing.
func (s *Sim) saveEvent(w snap.Walker, ev *event) {
	if w.Err() != nil {
		return
	}
	var kind uint8
	var id int64
	switch r := ev.r.(type) {
	case *callback:
		kind, id = snapEvFunc, r.id
	case *timer:
		kind, id = snapEvTimer, r.id
		if id == 0 {
			w.Fail(fmt.Errorf("netsim: pending timer at %v was created with Every, not a snapshot-aware registration", ev.at))
			return
		}
	case thunk:
		w.Fail(fmt.Errorf("netsim: pending callback at %v was scheduled untagged and cannot be checkpointed", ev.at))
		return
	default:
		kind = snapEvPacket
		if !reflect.TypeOf(r).Comparable() {
			w.Fail(fmt.Errorf("netsim: pending delivery at %v targets unregistrable receiver %T", ev.at, r))
			return
		}
		var ok bool
		if id, ok = s.reg.recvIDs[r]; !ok {
			w.Fail(fmt.Errorf("netsim: pending delivery at %v targets unregistered receiver %T", ev.at, r))
			return
		}
	}
	w.Dur(&ev.at)
	w.U64(&ev.seq)
	w.U8(&kind)
	w.I64(&id)
	if kind == snapEvPacket {
		WalkPacket(w, &ev.p)
	}
}

// loadHeap pushes the snapshot's events into the (cleared) pending set,
// resolving every id against the registry the rebuild and the component
// loads populated. The id must resolve to a receiver of the saved kind — a
// callback for a callback, a timer for a timer, neither for a packet — or the
// load fails rather than resume into a Receive(nil) its target cannot take.
// Timer ticks rejoin the lane for their interval where that keeps it sorted;
// everything else goes to the heap, whose pushes re-sift. Since (time, key)
// is a strict total order the pop sequence is independent of where an event
// sits. Schedule clamps the past, so no run holds an event earlier than its
// clock, and step would run the clock backwards on one: it is rejected.
func (s *Sim) loadHeap(w snap.Walker, n int) {
	for i := 0; i < n; i++ {
		var ev event
		var kind uint8
		var id int64
		w.Dur(&ev.at)
		w.U64(&ev.seq)
		w.U8(&kind)
		w.I64(&id)
		if w.Err() != nil {
			return
		}
		if ev.at < s.now {
			w.Fail(fmt.Errorf("netsim: heap holds an event at %v, before the restored clock %v", ev.at, s.now))
			return
		}
		r, ok := s.reg.lookup(id)
		t, isTimer := r.(*timer)
		_, isCallback := r.(*callback)
		switch kind {
		case snapEvFunc:
			ok = isCallback
		case snapEvTimer:
			ok = isTimer
		case snapEvPacket:
			ok = ok && !isCallback && !isTimer
		default:
			w.Fail(fmt.Errorf("netsim: unknown heap event kind %d", kind))
			return
		}
		if !ok {
			w.Fail(fmt.Errorf("netsim: heap references id %d as a kind-%d event, which the rebuild did not register as one", id, kind))
			return
		}
		ev.r = r
		if kind == snapEvPacket {
			if WalkPacket(w, &ev.p); w.Err() != nil {
				return
			}
		}
		if isTimer {
			s.pushFixed(t.interval, ev)
		} else {
			s.push(ev)
		}
	}
}

// WalkPacket visits a packet reference: a presence byte, then the packet's
// wire fields and its in-flight delay attribution state. A load
// rematerializes the packet, deliberately bypassing the counting pool path:
// its original NewPacket/ClonePacket was already counted in the Gets that
// WalkState loaded, so counting again would break the Live() conservation
// identity. The fresh allocation is born live, which re-arms pooldebug
// poisoning exactly — live packets are live, and freed packets are simply
// never rematerialized.
func WalkPacket(w snap.Walker, pp **Packet) {
	present := *pp != nil
	w.Bool(&present)
	if !present {
		*pp = nil
		return
	}
	if w.Loading() {
		//lint:poolleak pool-internal -- checkpoint rematerialization: the packet this replaces was checked out through the counting pool path before the snapshot, and WalkState loaded that accounting wholesale
		*pp = &Packet{}
	}
	p := *pp
	w.Int(&p.Flow)
	w.I64(&p.Seq)
	w.Int(&p.Bytes)
	w.Dur(&p.SentAt)
	w.Int(&p.Window)
	for i := range p.comps {
		w.Dur(&p.comps[i])
	}
	w.Dur(&p.mark)
	pend := uint8(p.pend)
	w.U8(&pend)
	if !w.Loading() || w.Err() != nil {
		return
	}
	if int(pend) >= stats.NumDelayComps {
		w.Fail(fmt.Errorf("netsim: packet snapshot pending component %d, this build has %d", pend, stats.NumDelayComps))
		return
	}
	p.pend = stats.DelayComp(pend)
	p.markLive()
}

// WalkListedPacket is WalkPacket for an element of a list that never holds
// nil (a queue ring, a stall buffer). A save visits *pp; a load reports
// whether *pp is a rematerialized packet to append, failing on an absent one.
func WalkListedPacket(w snap.Walker, pp **Packet) (loaded bool) {
	WalkPacket(w, pp)
	if !w.Loading() || w.Err() != nil {
		return false
	}
	if *pp == nil {
		w.Fail(fmt.Errorf("netsim: nil packet in a packet list snapshot"))
		return false
	}
	return true
}

// Walk visits the mesh's synchronization state and every cell's core state.
// It must run at a barrier: the mesh quiescent, no sharded window executing,
// every lookahead channel drained. The cell count and lookahead are the
// rebuilt topology's shape. Heaps are walked by WalkHeaps after the
// components, as the two-phase load requires.
func (m *Mesh) Walk(w snap.Walker) {
	w.Tag("mesh")
	if m.buffering {
		w.Fail(fmt.Errorf("netsim: mesh snapshot during a sharded window — snapshots are only valid at barriers"))
		return
	}
	if n := m.PendingCross(); n != 0 {
		w.Fail(fmt.Errorf("netsim: mesh snapshot with %d undelivered cross-cell messages — not at a quiescent barrier", n))
		return
	}
	w.SameInt(len(m.cells), "netsim: mesh cells")
	w.SameDur(m.lookahead, "netsim: mesh lookahead")
	w.Dur(&m.clock)
	w.U64(&m.windows)
	w.U64(&m.crossDelivered)
	for _, c := range m.cells {
		c.WalkState(w)
	}
}

// WalkHeaps visits every cell's pending events; on a load, call it after
// every component's walk has re-registered its timers.
func (m *Mesh) WalkHeaps(w snap.Walker) {
	w.Tag("meshheaps")
	for _, c := range m.cells {
		c.WalkHeap(w)
	}
}
