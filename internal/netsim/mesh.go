package netsim

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Mesh partitions a simulation into per-cell event heaps with deterministic
// conservative synchronization, the substrate for multi-cell "metro"
// topologies (DESIGN.md §7). Each cell is an ordinary *Sim — links, queues,
// and flows are built against it exactly as against a standalone simulator —
// and cross-cell interactions travel over lookahead channels: SendPacket
// schedules a delivery in another cell's timeline at least `lookahead` in
// the future.
//
// Two executors run the same mesh:
//
//   - RunSingle is the reference single-heap executor: one merged event
//     order over every cell, popped strictly by (time, order key).
//   - RunSharded is the conservative parallel executor: time advances in
//     lookahead-wide windows, within a window every cell runs to the window
//     edge independently — on whichever of the call's goroutines claims it
//     first — and cross-cell messages are exchanged at the barrier between
//     windows. An idle cell still advances its clock to each window edge —
//     the null-message advance — so no cell is ever more than one lookahead
//     behind its peers.
//
// The two are byte-identical, for any shard count, because of two
// structural properties. First, every event's order key — (cell id,
// cell-local insertion counter) packed by orderKey — is claimed at creation
// time by the cell that creates it and travels with the event, so heap
// order never depends on when a message is physically delivered. Second,
// cross-cell delays are at least the lookahead, so two events in different
// cells closer together than one window can never interact; any execution
// interleaving between cells inside a window observes the same state.
// Within one cell, events execute in identical (time, key) order under both
// executors, by induction over windows.
type Mesh struct {
	cells     []*Sim
	lookahead time.Duration
	clock     time.Duration

	// buffering is true while RunSharded windows execute: a send then appends
	// to the source cell's outbox (owned by whichever goroutine is running
	// that cell) instead of pushing into the destination heap, and the
	// coordinator drains outboxes at barriers. It is written only by the
	// coordinating goroutine before workers start and after they join.
	buffering bool

	windows        uint64 // completed sharded windows (barrier count)
	crossDelivered uint64 // cross-cell messages delivered into a heap

	// Window telemetry, see WindowStats. Deterministic, but not part of a
	// snapshot: a resumed mesh counts from zero.
	events     uint64 // events executed inside sharded windows
	critEvents uint64 // Σ over windows of the busiest cell's event count

	// windowHook, when non-nil, runs on the coordinating goroutine after
	// each sharded window's barrier with that window's horizon — the
	// liveness probe the watchdog tests use.
	windowHook func(horizon time.Duration)

	obs *meshObs
}

// NewMesh returns a mesh of n cells synchronized at the given lookahead —
// the minimum cross-cell propagation delay. A non-positive lookahead is
// rejected at construction: a zero-delay cross-cell link would make
// conservative synchronization impossible (no window in which cells are
// independent), so it is a topology error, not a runtime condition.
func NewMesh(n int, lookahead time.Duration) *Mesh {
	if n <= 0 {
		panic("netsim: mesh needs at least one cell")
	}
	if lookahead <= 0 {
		panic("netsim: mesh lookahead must be positive — zero-delay cross-cell links cannot be conservatively synchronized")
	}
	m := &Mesh{cells: make([]*Sim, n), lookahead: lookahead}
	for i := range m.cells {
		m.cells[i] = &Sim{id: uint32(i)}
	}
	return m
}

// Cell returns cell i's simulator. Entities owned by cell i must be
// constructed against this Sim and touched only from its timeline.
func (m *Mesh) Cell(i int) *Sim { return m.cells[i] }

// Lookahead returns the synchronization horizon.
func (m *Mesh) Lookahead() time.Duration { return m.lookahead }

// Now returns the virtual time the whole mesh has reached.
func (m *Mesh) Now() time.Duration { return m.clock }

// Windows returns how many conservative windows RunSharded has completed.
func (m *Mesh) Windows() uint64 { return m.windows }

// CrossDelivered returns how many cross-cell messages have been delivered
// into a destination heap so far.
func (m *Mesh) CrossDelivered() uint64 { return m.crossDelivered }

// WindowStats returns what RunSharded has executed so far: events, the
// events run inside windows, and critEvents, the sum over windows of the
// busiest cell's count — the events on the critical path if every cell had a
// processor of its own. events/critEvents is therefore the parallelism the
// topology admits at any worker count (cells cannot be split), before
// barrier costs. Both are functions of the event order alone, identical for
// every shard count; RunSingle has no windows and adds nothing. They are not
// snapshotted and restart from zero on a resumed mesh.
func (m *Mesh) WindowStats() (events, critEvents uint64) { return m.events, m.critEvents }

// PendingCross returns the number of cross-cell messages sitting in
// lookahead channels (sent but not yet delivered into a destination heap).
// Only meaningful between Run calls.
func (m *Mesh) PendingCross() int {
	n := 0
	for _, c := range m.cells {
		n += len(c.outbox)
	}
	return n
}

// crossMsg is one message in a lookahead channel: an event bound for cell
// dst, carrying the order key its sending cell claimed for it. A packet
// simply migrates to the destination cell (whose pool it will be released
// into).
type crossMsg struct {
	dst int32
	e   event
}

// SendPacket delivers p to Receiver r in cell dst's timeline at the sending
// cell's now+delay. It must be called from within cell src's event
// execution (or during setup, before any executor runs). The delay must be
// at least the mesh lookahead; anything shorter would let the message arrive
// inside the window its sender is still executing, which the conservative
// protocol cannot order. The packet must not be touched by the sending cell
// after the call (ownership migrates with it).
func (m *Mesh) SendPacket(src, dst int, delay time.Duration, r Receiver, p *Packet) {
	AssertLive(p, "Mesh.SendPacket")
	m.send(src, dst, delay, r, p)
}

// send is SendPacket without the packet's liveness check, for the tests'
// callback receivers, whose packet is nil.
func (m *Mesh) send(src, dst int, delay time.Duration, r Receiver, p *Packet) {
	if delay < m.lookahead {
		panic(fmt.Sprintf("netsim: cross-cell delay %v below mesh lookahead %v", delay, m.lookahead))
	}
	if dst < 0 || dst >= len(m.cells) {
		panic(fmt.Sprintf("netsim: cross-cell send to unknown cell %d (mesh has %d)", dst, len(m.cells)))
	}
	s := m.cells[src]
	msg := crossMsg{dst: int32(dst), e: event{at: s.now + delay, seq: s.nextKey(), r: r, p: p}}
	if m.buffering {
		s.outbox = append(s.outbox, msg)
		return
	}
	m.deliver(msg)
}

// deliver pushes one channel message into its destination heap. The key
// travels with the message, so the insertion moment — immediate in the
// merged reference executor, barrier-deferred in the sharded one — never
// affects ordering.
func (m *Mesh) deliver(msg crossMsg) {
	m.cells[msg.dst].push(msg.e)
	m.crossDelivered++
}

// drain moves every buffered channel message into its destination heap, in
// cell-id order. Because order keys were claimed at send time, drain order
// cannot influence event order; the fixed iteration keeps the merge
// deterministic anyway (and keeps allocation behavior reproducible).
func (m *Mesh) drain() {
	for _, c := range m.cells {
		for i := range c.outbox {
			m.deliver(c.outbox[i])
			c.outbox[i] = crossMsg{} // release the receiver and packet
		}
		c.outbox = c.outbox[:0]
	}
	if m.obs != nil {
		m.obs.sync(m)
	}
}

// RunSingle advances the mesh to `until` on the reference single-heap
// executor: every cell's pending events merged into one global order by
// (time, order key) and executed on the calling goroutine. It exists as the
// executable specification the sharded executor is tested against — and as
// the debug path when a sharded run needs to be bisected.
func (m *Mesh) RunSingle(until time.Duration) {
	m.drain()
	for {
		best := -1
		var bestAt time.Duration
		var bestKey uint64
		for i, c := range m.cells {
			if !c.headBefore(until, true) {
				continue
			}
			at, key := c.headKey()
			if best < 0 || at < bestAt || (at == bestAt && key < bestKey) {
				best, bestAt, bestKey = i, at, key
			}
		}
		if best < 0 {
			break
		}
		m.cells[best].step()
	}
	for _, c := range m.cells {
		if until > c.now {
			c.now = until
		}
	}
	if until > m.clock {
		m.clock = until
	}
	if m.obs != nil {
		m.obs.sync(m)
	}
}

// RunSharded advances the mesh to `until` on the conservative executor.
// shards is the number of goroutines that execute cells, the caller
// included (clamped to the cell count); cells have no home among them.
// Execution proceeds in lookahead-wide windows on a grid anchored at zero. A
// window is a bag of independent cells: the caller resets a cursor, releases
// the workers and claims cells beside them, and whoever claims a cell runs
// its events strictly before the horizon, buffering cross-cell sends. Once
// the last cell is done the caller drains every channel in cell-id order and
// the next window opens; every clock has then reached the horizon (the
// null-message advance for idle cells). Events exactly at `until` run in a
// final inclusive pass, mirroring Sim.Run's at<=until semantics.
//
// Output is byte-identical to RunSingle for every shard count; see the type
// comment for why. Which goroutine ran which cell never shows.
func (m *Mesh) RunSharded(until time.Duration, shards int) {
	if shards <= 0 {
		panic("netsim: shard count must be positive")
	}
	if shards > len(m.cells) {
		shards = len(m.cells)
	}
	m.drain()
	r := &shardRun{
		cells:   m.cells,
		events:  make([]uint64, len(m.cells)),
		caller:  newParker(),
		workers: make([]*parker, shards-1),
	}
	var wg sync.WaitGroup
	for i := range r.workers {
		p := newParker()
		r.workers[i] = p
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.work(p)
		}()
	}
	m.buffering = true
	window := func(horizon time.Duration, inclusive bool) {
		events, crit := r.window(horizon, inclusive)
		m.events += events
		m.critEvents += crit
		m.drain()
		m.windows++
		if m.windowHook != nil {
			m.windowHook(horizon)
		}
	}
	for m.clock < until {
		// Next grid boundary strictly past the clock, clamped to `until`.
		h := m.clock - m.clock%m.lookahead + m.lookahead
		if h > until {
			h = until
		}
		window(h, false)
		m.clock = h
	}
	// Events exactly at `until`: any message they send arrives strictly
	// after `until`, so this pass needs no further barrier.
	window(until, true)
	m.buffering = false
	r.stop()
	wg.Wait()
}

// barrierSpin is how many times a waiter at the window barrier polls its word,
// yielding the processor between polls, before it parks on its channel. An
// iteration count, not a duration: the executor stays off the wall clock. A
// yield that finds nothing else to run costs ~0.1 µs, so the budget is ~50 µs:
// what a park and the wake-up after it cost, and about how long a worker
// waits for its peer to finish a busy cell — the wait that made a channel
// barrier cost as much as the work it fenced. Because every poll yields, a
// waiter never keeps a processor from a goroutine with work to do, whether
// workers outnumber processors or the collector wants one. Throughput on the
// metro_sharded workload is flat from 2⁸ to 2¹².
const barrierSpin = 1 << 9

// parker is one goroutine's seat at the window barrier. Its owner awaits a
// change of an atomic word, polling first and parking on wake after
// barrierSpin polls; whoever changes the word calls unpark afterwards. A
// token is sent only by the side that flips parked from true to false and the
// owner takes every token sent, so none is lost and at most one is in the
// channel. A token can be late — the goroutine that closed window k may be
// descheduled between the word and the unpark, and deliver it into the
// owner's wait for window k+1 — so a woken owner checks the word again.
type parker struct {
	parked atomic.Bool
	wake   chan struct{}
}

func newParker() *parker { return &parker{wake: make(chan struct{}, 1)} }

// await returns once word no longer holds old.
func (p *parker) await(word *atomic.Uint32, old uint32) {
	for {
		for i := 0; i < barrierSpin; i++ {
			if word.Load() != old {
				return
			}
			runtime.Gosched()
		}
		p.parked.Store(true)
		// The word may have changed, and unpark looked, before parked was
		// set: re-check, and take the flag back unless unpark holds it.
		if word.Load() != old && p.parked.CompareAndSwap(true, false) {
			return
		}
		<-p.wake
	}
}

// unpark wakes the owner if it is parked. Call it after changing the word.
func (p *parker) unpark() {
	if p.parked.CompareAndSwap(true, false) {
		p.wake <- struct{}{}
	}
}

// shardRun is the state the goroutines of one RunSharded call share. The
// caller writes horizon and inclusive only while the cursor is exhausted, and
// a claimer reads them only after drawing a valid index from it, so both are
// ordered by the cursor; events[i] is ordered by left the same way.
type shardRun struct {
	cells     []*Sim
	horizon   time.Duration
	inclusive bool
	events    []uint64 // events cell i executed in the current window

	cursor  atomic.Int64  // next cell to claim
	left    atomic.Int64  // cells of the current window not yet run to the horizon
	opened  atomic.Uint32 // bumped when a window opens; workers await it
	closed  atomic.Uint32 // bumped when a window's last cell is done; the caller awaits it
	stopped atomic.Bool

	caller  *parker
	workers []*parker
}

// window runs every cell to the horizon and, once all are there, returns the
// events they executed and the busiest cell's share of them.
func (r *shardRun) window(horizon time.Duration, inclusive bool) (events, crit uint64) {
	r.horizon, r.inclusive = horizon, inclusive
	closed := r.closed.Load()
	r.left.Store(int64(len(r.cells)))
	r.cursor.Store(0)
	r.release()
	r.claim()
	r.caller.await(&r.closed, closed)
	for _, n := range r.events {
		events += n
		if n > crit {
			crit = n
		}
	}
	return events, crit
}

// release tells every worker that the cursor or the stop flag has changed.
func (r *shardRun) release() {
	r.opened.Add(1)
	for _, p := range r.workers {
		p.unpark()
	}
}

// claim runs cells drawn from the cursor until none is left to draw. The
// barrier counts cells, not goroutines: a worker that is scheduled late
// finds the cursor exhausted — or, later still, the next window's cells —
// and never holds a window open.
func (r *shardRun) claim() {
	for {
		i := int(r.cursor.Add(1)) - 1
		if i >= len(r.cells) {
			return
		}
		r.events[i] = r.cells[i].runWindow(r.horizon, r.inclusive)
		if r.left.Add(-1) == 0 {
			r.closed.Add(1)
			r.caller.unpark()
		}
	}
}

// work is a worker goroutine's life: claim whenever a window opens.
func (r *shardRun) work(p *parker) {
	var seen uint32
	for {
		p.await(&r.opened, seen)
		seen = r.opened.Load()
		if r.stopped.Load() {
			return
		}
		r.claim()
	}
}

// stop releases the workers for the last time.
func (r *shardRun) stop() {
	r.stopped.Store(true)
	r.release()
}

// Instrument attaches passive observability: counters for delivered
// cross-cell messages, completed windows, the WindowStats pair and the
// summed PoolStats gets and misses (Allocated), plus a gauge of messages
// currently in lookahead channels. All instruments are updated by the
// coordinating goroutine only, at barriers — never from workers.
func (m *Mesh) Instrument(o *obs.Observer, run int64) {
	if o == nil {
		m.obs = nil
		return
	}
	label := func(name string) string {
		return obs.Labeled(name, "run", strconv.FormatInt(run, 10))
	}
	m.obs = &meshObs{
		cross:   o.Counter(label("netsim_mesh_cross_total")),
		windows: o.Counter(label("netsim_mesh_windows_total")),
		pending: o.Gauge(label("netsim_mesh_cross_pending")),
		events:  o.Counter(label("netsim_mesh_events_total")),
		crit:    o.Counter(label("netsim_mesh_window_crit_events_total")),
		gets:    o.Counter(label("netsim_pool_gets_total")),
		misses:  o.Counter(label("netsim_pool_misses_total")),
	}
}

// meshObs holds the mesh's resolved metric instruments.
type meshObs struct {
	cross   *obs.Counter
	windows *obs.Counter
	pending *obs.Gauge
	events  *obs.Counter
	crit    *obs.Counter
	gets    *obs.Counter
	misses  *obs.Counter

	lastCross   uint64
	lastWindows uint64
	lastEvents  uint64
	lastCrit    uint64
	lastPool    PacketPoolStats
}

// sync folds the mesh's monotone totals into the registry instruments.
func (mo *meshObs) sync(m *Mesh) {
	mo.cross.Add(int64(m.crossDelivered - mo.lastCross))
	mo.lastCross = m.crossDelivered
	mo.windows.Add(int64(m.windows - mo.lastWindows))
	mo.lastWindows = m.windows
	mo.pending.Set(float64(m.PendingCross()))
	mo.events.Add(int64(m.events - mo.lastEvents))
	mo.lastEvents = m.events
	mo.crit.Add(int64(m.critEvents - mo.lastCrit))
	mo.lastCrit = m.critEvents
	pool := m.PoolStats()
	mo.gets.Add(int64(pool.Gets - mo.lastPool.Gets))
	mo.misses.Add(int64(pool.Allocated - mo.lastPool.Allocated))
	mo.lastPool = pool
}
