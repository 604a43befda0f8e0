package netsim

import (
	"container/heap"
	"math/rand"
	"testing"
	"time"

	"repro/internal/snap"
)

// Lanes ≡ heap-only. The fixed-delay lanes must leave the (at, seq) pop order
// exactly what one heap holding every event would produce. laneModel drives a
// Sim through the public scheduling surface and mirrors every key the Sim
// claims into the reference container/heap of sim_perf_test.go; every firing
// must then be the reference's next pop, and after every Run the Sim's head
// key must be the reference's top.

// Labels name the pending event a key belongs to. Every label has at most one
// pending event at a time, so (at, label) identifies a firing exactly.
const (
	laneTimerLabel = -1_000_000 // minus the timer's index
	laneFuncLabel  = -2_000_000 // minus the func's index
)

type laneModel struct {
	t   *testing.T
	rng *rand.Rand
	s   *Sim
	// tagged selects the checkpointable surface only (timers armed in place
	// under an id, registered callbacks), which is what lets a trial snapshot
	// and restore mid-run.
	tagged bool

	ref    refHeap
	label  map[uint64]int64 // order key → label of the pending event holding it
	silent map[uint64]bool  // keys of ticks whose timer was stopped: popped without firing

	delays  []time.Duration // the distinct fixed hop delays
	prop    time.Duration   // one more hop delay, changed mid-run like SetPropDelay
	recv    *laneRecv
	timers  []*laneTimer
	funcs   []*laneFunc
	pkts    int64
	foreign [2]uint64 // insertion counters of the cells below and above ours
	fired   int
}

// laneCell is the model Sim's cell id: keys claimed by cell 0 sort below its
// own at equal times, keys claimed by cell 2 above.
const laneCell = 1

type laneRecv struct{ m *laneModel }

type laneTimer struct {
	m        *laneModel
	label    int64
	id       int64
	interval time.Duration
	// tm is the timer itself when the model is tagged; stop ends it either
	// way.
	tm      timer
	stop    func()
	stopped bool
	key     uint64 // the pending tick's key
}

type laneFunc struct {
	m       *laneModel
	label   int64
	cb      Receiver
	pending bool
}

// build constructs the Sim and performs the construction-time registrations,
// in the one order a restore must repeat.
func (m *laneModel) build() {
	m.s = NewMesh(3, time.Millisecond).Cell(laneCell)
	m.recv = &laneRecv{m}
	m.s.RegisterReceiver(m.recv)
	for _, f := range m.funcs {
		f.cb = m.s.RegisterFunc(f.run)
	}
}

// localKey is the key the Sim's last scheduling call claimed.
func (m *laneModel) localKey() uint64 { return orderKey(m.s.id, m.s.seq) }

// expect mirrors one scheduled event into the reference heap.
func (m *laneModel) expect(at time.Duration, key uint64, label int64) {
	if at < m.s.now {
		at = m.s.now // every entry point clamps the past to now
	}
	if _, dup := m.label[key]; dup {
		m.t.Fatalf("order key %d claimed twice", key)
	}
	heap.Push(&m.ref, refEvent{at, key})
	m.label[key] = label
}

// popRef pops the reference's next event that fires.
func (m *laneModel) popRef() (refEvent, int64, bool) {
	for len(m.ref) > 0 {
		e := heap.Pop(&m.ref).(refEvent)
		l := m.label[e.seq]
		delete(m.label, e.seq)
		if m.silent[e.seq] {
			delete(m.silent, e.seq)
			continue
		}
		return e, l, true
	}
	return refEvent{}, 0, false
}

// fire is called first thing by every callback: the firing must be the
// reference's next pop, at the reference's time.
func (m *laneModel) fire(label int64) {
	e, l, ok := m.popRef()
	if !ok {
		m.t.Fatalf("firing %d: label %d at %v, but the reference heap is empty", m.fired, label, m.s.now)
	}
	if e.at != m.s.now || l != label {
		m.t.Fatalf("firing %d: label %d at %v, reference pops label %d at %v (key %d)",
			m.fired, label, m.s.now, l, e.at, e.seq)
	}
	m.fired++
}

// checkHead runs after Run(until): whatever the reference still holds at or
// before until must be silent, and its top must be the Sim's head key — which
// also pins the keys of silent ticks the Sim has yet to pop.
func (m *laneModel) checkHead(until time.Duration) {
	for len(m.ref) > 0 && m.ref[0].at <= until {
		e := heap.Pop(&m.ref).(refEvent)
		if !m.silent[e.seq] {
			m.t.Fatalf("Run(%v) left label %d at %v unfired", until, m.label[e.seq], e.at)
		}
		delete(m.silent, e.seq)
		delete(m.label, e.seq)
	}
	if got, want := m.s.Pending(), len(m.ref); got != want {
		m.t.Fatalf("after Run(%v): %d pending, reference holds %d", until, got, want)
	}
	if len(m.ref) == 0 {
		return
	}
	if at, seq := m.s.headKey(); at != m.ref[0].at || seq != m.ref[0].seq {
		m.t.Fatalf("after Run(%v): head key (%v, %d), reference top (%v, %d)", until, at, seq, m.ref[0].at, m.ref[0].seq)
	}
}

func (m *laneModel) hopDelay() time.Duration {
	if m.rng.Intn(4) == 0 {
		return m.prop
	}
	return m.delays[m.rng.Intn(len(m.delays))]
}

// sendPacket schedules a fresh packet delivery through one of the three
// packet entry points.
func (m *laneModel) sendPacket() {
	s := m.s
	p := s.NewPacket(0, 0, 100, s.now, 2+m.rng.Intn(4)) // Window counts remaining hops
	m.pkts++
	p.Seq = m.pkts
	switch m.rng.Intn(5) {
	case 0: // absolute time, sometimes in the past
		at := s.now + time.Duration(m.rng.Intn(24)-3)*time.Millisecond
		s.SchedulePacket(at, m.recv, p)
		m.expect(at, m.localKey(), p.Seq)
	case 1: // cross-cell arrival: the key was claimed by another cell
		side := m.rng.Intn(2)
		m.foreign[side]++
		key := orderKey(uint32(2*side), m.foreign[side])
		at := s.now + time.Duration(1+m.rng.Intn(8))*time.Millisecond
		s.push(event{at: at, seq: key, r: m.recv, p: p})
		m.expect(at, key, p.Seq)
	case 2: // a negative delay clamps to now
		s.SchedulePacketAfter(-time.Millisecond, m.recv, p)
		m.expect(s.now, m.localKey(), p.Seq)
	default:
		d := m.hopDelay()
		s.SchedulePacketAfter(d, m.recv, p)
		m.expect(s.now+d, m.localKey(), p.Seq)
	}
}

// Receive implements Receiver: a packet either takes another fixed-delay hop
// or ends its life.
func (r *laneRecv) Receive(p *Packet) {
	m := r.m
	m.fire(p.Seq)
	if p.Window == 0 {
		m.s.FreePacket(p)
		return
	}
	p.Window--
	d := m.hopDelay()
	m.s.SchedulePacketAfter(d, r, p)
	m.expect(m.s.now+d, m.localKey(), p.Seq)
}

func (m *laneModel) addTimer(interval time.Duration) {
	lt := &laneTimer{m: m, label: laneTimerLabel - int64(len(m.timers)), id: -1 - int64(len(m.timers)), interval: interval}
	m.timers = append(m.timers, lt)
	if m.tagged {
		m.s.arm(&lt.tm, lt.id, interval, thunk(lt.tick))
		lt.stop = func() { lt.tm.stopped = true }
	} else {
		lt.stop = m.s.Every(interval, lt.tick)
	}
	lt.key = m.localKey()
	m.expect(m.s.now+interval, lt.key, lt.label)
}

func (lt *laneTimer) tick() {
	m := lt.m
	m.fire(lt.label)
	if m.rng.Intn(3) == 0 {
		m.sendPacket()
	}
	if m.rng.Intn(25) == 0 {
		lt.stop() // from inside the callback: this firing completes, nothing re-arms
		lt.stopped = true
		return
	}
	// The re-arm claims the next key right after this callback returns.
	lt.key = orderKey(m.s.id, m.s.seq+1)
	m.expect(m.s.now+lt.interval, lt.key, lt.label)
}

// stopTimer stops lt from outside its callback: the pending tick drains
// without firing.
func (m *laneModel) stopTimer(lt *laneTimer) {
	if lt.stopped {
		return
	}
	lt.stop()
	lt.stopped = true
	m.silent[lt.key] = true
}

func (f *laneFunc) run() {
	f.m.fire(f.label)
	f.pending = false
}

// scheduleFunc schedules one idle registered callback, on the heap paths.
func (m *laneModel) scheduleFunc() {
	for _, f := range m.funcs {
		if f.pending {
			continue
		}
		f.pending = true
		var at time.Duration
		if m.rng.Intn(2) == 0 {
			at = m.s.now + time.Duration(m.rng.Intn(7000))*time.Microsecond // computed per event, like a serialization time
		} else {
			at = m.s.now + time.Duration(m.rng.Intn(12)-2)*time.Millisecond
		}
		m.s.SchedulePacket(at, f.cb, nil)
		m.expect(at, m.localKey(), f.label)
		return
	}
}

// scheduleClosure uses the plain, uncheckpointable entry points.
func (m *laneModel) scheduleClosure() {
	m.pkts++
	label := m.pkts
	fn := func() { m.fire(label) }
	if m.rng.Intn(2) == 0 {
		d := time.Duration(m.rng.Intn(5)) * time.Millisecond
		m.s.Schedule(m.s.now+d, fn)
		m.expect(m.s.now+d, m.localKey(), label)
	} else {
		at := m.s.now + time.Duration(m.rng.Intn(12)-2)*time.Millisecond
		m.s.Schedule(at, fn)
		m.expect(at, m.localKey(), label)
	}
}

// checkpoint snapshots the Sim, rebuilds it from scratch and restores: the
// pending set must come back with every key intact, wherever each event sat.
func (m *laneModel) checkpoint() {
	e := snap.NewEncoder()
	m.s.WalkState(snap.Save(e))
	m.s.WalkHeap(snap.Save(e))
	blob, err := e.Encode(snap.Version)
	if err != nil {
		m.t.Fatal(err)
	}
	d, err := snap.Decode(blob, snap.Version)
	if err != nil {
		m.t.Fatal(err)
	}
	m.build()
	m.s.WalkState(snap.Load(d))
	for _, lt := range m.timers {
		m.s.restoreTimer(&lt.tm, lt.id, lt.interval, thunk(lt.tick), lt.stopped)
	}
	m.s.WalkHeap(snap.Load(d))
	if err := d.Err(); err != nil {
		m.t.Fatal(err)
	}
	if err := d.Done(); err != nil {
		m.t.Fatal(err)
	}
}

// runLaneTrial runs one seeded schedule. nDelays distinct hop delays and
// nTimers timers on distinct intervals share the maxLanes lanes, so beyond
// eight the heap fallback is in play; snapEvery > 0 checkpoints and restores
// every that many steps.
func runLaneTrial(t *testing.T, seed int64, nDelays, nTimers, steps, snapEvery int) {
	m := &laneModel{
		t:      t,
		rng:    rand.New(rand.NewSource(seed)),
		tagged: snapEvery > 0,
		label:  map[uint64]int64{},
		silent: map[uint64]bool{},
		prop:   10 * time.Millisecond,
	}
	// Whole milliseconds on a millisecond step grid: same-instant ties are
	// the rule. Delay zero is a lane like any other.
	for i := 0; i < nDelays; i++ {
		m.delays = append(m.delays, time.Duration(i)*time.Millisecond)
	}
	for i := 0; i < 4; i++ {
		m.funcs = append(m.funcs, &laneFunc{m: m, label: laneFuncLabel - int64(i)})
	}
	m.build()
	for i := 0; i < nTimers; i++ {
		m.addTimer(time.Duration(1+i%5+i/5*7) * time.Millisecond)
	}
	for step := 1; step <= steps; step++ {
		for k := m.rng.Intn(4); k > 0; k-- {
			switch r := m.rng.Intn(20); {
			case r < 12:
				m.sendPacket()
			case r < 16:
				m.scheduleFunc()
			case r < 18 && !m.tagged:
				m.scheduleClosure()
			case r == 18 && len(m.timers) > 0:
				m.stopTimer(m.timers[m.rng.Intn(len(m.timers))])
			case r == 19 && len(m.timers) < 24:
				m.addTimer(time.Duration(1+m.rng.Intn(30)) * time.Millisecond)
			}
		}
		if step == steps/2 {
			m.prop = 33 * time.Millisecond // the Fig. 11 kind of change: in-flight hops keep the old delay
		}
		until := m.s.now + time.Duration(m.rng.Intn(4))*time.Millisecond
		m.s.Run(until)
		m.checkHead(until)
		if snapEvery > 0 && step%snapEvery == 0 {
			m.checkpoint()
			m.checkHead(until)
		}
	}
	for _, lt := range m.timers {
		m.stopTimer(lt)
	}
	until := m.s.now + time.Hour
	m.s.Run(until)
	m.checkHead(until)
	if m.s.Pending() != 0 {
		t.Fatalf("%d events pending after the drain", m.s.Pending())
	}
	if live := m.s.PoolStats().Live(); live != 0 {
		t.Fatalf("%d packets live after the drain", live)
	}
	if m.fired == 0 {
		t.Fatal("nothing fired; the trial is vacuous")
	}
}

// TestLanesMatchReferenceHeap is TestHeapMatchesContainerHeap for the whole
// pending set: mixed schedules over 1 … 12 hop delays (more than there are
// lanes), Every with stops from inside and outside the callback, a hop delay
// that changes mid-run, same-instant ties, past-clamped times, cross-cell
// keyed arrivals and checkpoint/restore mid-run.
func TestLanesMatchReferenceHeap(t *testing.T) {
	for nDelays := 1; nDelays <= 12; nDelays++ {
		for _, snapEvery := range []int{0, 37} {
			runLaneTrial(t, int64(100*nDelays+snapEvery), nDelays, nDelays, 1500, snapEvery)
		}
	}
}

// TestLanesCarryFixedDelayTraffic guards against the vacuous pass: on the
// simulator's own traffic pattern the lanes, not the heap, hold the events.
func TestLanesCarryFixedDelayTraffic(t *testing.T) {
	s := NewSim()
	free := ReceiverFunc(func(p *Packet) { s.FreePacket(p) })
	stop := s.Every(5*time.Millisecond, func() {
		s.SchedulePacketAfter(10*time.Millisecond, free, s.NewPacket(0, 0, 100, s.Now(), 0))
	})
	defer stop()
	s.Run(50 * time.Millisecond)
	if s.Pending() == 0 || len(s.events) != 0 || s.nlanes != 2 {
		t.Fatalf("tick + fixed hop: %d events pending, %d of them on the heap, %d lanes open; want none on the heap and 2 lanes",
			s.Pending(), len(s.events), s.nlanes)
	}
}

// FuzzLaneOrder is the same property under fuzzed shapes: any seed, any
// number of hop delays and timers, with or without checkpoints.
func FuzzLaneOrder(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(2), uint8(0))
	f.Add(int64(2), uint8(12), uint8(12), uint8(10))
	f.Add(int64(3), uint8(1), uint8(0), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, nDelays, nTimers, snapEvery uint8) {
		runLaneTrial(t, seed, int(nDelays)%16+1, int(nTimers)%16, 300, int(snapEvery)%50)
	})
}
