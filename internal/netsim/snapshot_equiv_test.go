package netsim

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/snap"
	"repro/internal/trace"
)

// Checkpoint equivalence and pool-conservation properties on the dumbbell
// topology (DESIGN.md §10): a restore overlaid on a deterministic rebuild
// must conserve the packet-pool accounting exactly and continue to the same
// final state a never-interrupted run reaches.

// snapWindow is a minimal checkpoint-aware fixed-window controller.
type snapWindow struct {
	w    int
	acks int
}

func (f *snapWindow) Name() string                           { return "snapfixed" }
func (f *snapWindow) OnAck(_ time.Duration, _ cc.AckSample)  { f.acks++ }
func (f *snapWindow) OnLoss(_ time.Duration, _ cc.LossEvent) {}
func (f *snapWindow) OnTimeout(time.Duration)                {}
func (f *snapWindow) TickInterval() time.Duration            { return 0 }
func (f *snapWindow) Tick(time.Duration)                     {}
func (f *snapWindow) Allowance(_ time.Duration, inflight int) int {
	return f.w - inflight
}
func (f *snapWindow) SendTag() int                     { return f.w }
func (f *snapWindow) OnSend(time.Duration, int64, int) {}

// Walk implements snap.Walkable.
func (f *snapWindow) Walk(w snap.Walker) {
	w.Tag("snapwin")
	w.Int(&f.acks)
}

// buildSnapDumbbell is the deterministic topology both sides of a
// checkpoint run: every flow stops, so a long-enough run reaches pool
// quiescence, and the queue is small enough to force tail drops (the
// free-on-drop pool path).
func buildSnapDumbbell() *Dumbbell {
	sim := NewSim()
	return NewDumbbell(sim, func(dst Receiver) Link {
		return NewFixedLink(sim, NewDropTail(8_000), 6, 5*time.Millisecond, dst, 1)
	}, 1000, []FlowSpec{
		{Ctrl: &snapWindow{w: 6}, AckDelay: 5 * time.Millisecond, Stop: 1200 * time.Millisecond},
		{Ctrl: &snapWindow{w: 3}, AckDelay: 7 * time.Millisecond, Start: 200 * time.Millisecond, Stop: 900 * time.Millisecond},
		{CBRMbps: 1.5, OnFor: 300 * time.Millisecond, OffFor: 200 * time.Millisecond, Stop: time.Second},
	})
}

// TestPoolSnapshotConservationAcrossRestore is the satellite pool property:
// PoolStats (Allocated/Gets/Frees, hence Live) survive snapshot→restore
// exactly, and a restored run reaches Live()==0 at quiescence just as the
// uninterrupted run does, with byte-identical flow metrics. Under
// -tags pooldebug the restored packets are rematerialized live, so every
// AssertLive checkpoint and double-free poison stays armed.
func TestPoolSnapshotConservationAcrossRestore(t *testing.T) {
	const barrier = 700 * time.Millisecond
	const horizon = 3 * time.Second

	ref := buildSnapDumbbell()
	ref.Run(barrier)
	before := ref.Sim.PoolStats()
	if before.Live() == 0 {
		t.Fatal("barrier reached with no live packets; the conservation property would be vacuous")
	}
	e := snap.NewEncoder()
	ref.Snapshot(e)
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	blob, err := e.Encode(snap.Version)
	if err != nil {
		t.Fatal(err)
	}

	dec, err := snap.Decode(blob, snap.Version)
	if err != nil {
		t.Fatal(err)
	}
	res := buildSnapDumbbell()
	res.Restore(dec)
	if err := dec.Err(); err != nil {
		t.Fatal(err)
	}
	if err := dec.Done(); err != nil {
		t.Fatal(err)
	}
	if after := res.Sim.PoolStats(); after != before {
		t.Fatalf("pool stats not conserved through restore: %+v -> %+v", before, after)
	}

	ref.Run(horizon)
	res.Run(horizon)
	if got, want := res.Sim.PoolStats(), ref.Sim.PoolStats(); got != want {
		t.Fatalf("post-restore pool stats diverge: restored %+v, straight %+v", got, want)
	}
	if live := res.Sim.PoolStats().Live(); live != 0 {
		t.Fatalf("post-restore quiescence leaves %d live packets", live)
	}
	if !reflect.DeepEqual(res.Metrics, ref.Metrics) {
		t.Fatalf("post-restore flow metrics diverge:\nrestored %+v\nstraight %+v", res.Metrics, ref.Metrics)
	}
	if res.Sim.Pending() != ref.Sim.Pending() || res.Sim.Now() != ref.Sim.Now() {
		t.Fatalf("post-restore sim state diverges: pending %d/%d, now %v/%v",
			res.Sim.Pending(), ref.Sim.Pending(), res.Sim.Now(), ref.Sim.Now())
	}
}

// TestSnapshotRejectsUntrackedEvents pins the all-or-nothing contract: a
// pending callback scheduled outside the registry (plain Schedule) must fail
// the whole snapshot with a named error, never be silently dropped.
func TestSnapshotRejectsUntrackedEvents(t *testing.T) {
	d := buildSnapDumbbell()
	d.Sim.Schedule(2*time.Second, func() {})
	d.Run(100 * time.Millisecond)
	e := snap.NewEncoder()
	d.Snapshot(e)
	if e.Err() == nil {
		t.Fatal("snapshot of an untagged pending callback succeeded; checkpoints must capture everything or nothing")
	}
}

// TestTraceLinkLoadRejectsHostileSnapshot: opIdx indexes the trace at the next
// delivery opportunity, so a well-framed snapshot that puts it outside the
// trace — or serves a negative share of the head packet — must fail the
// load, not panic a resumed run.
func TestTraceLinkLoadRejectsHostileSnapshot(t *testing.T) {
	build := func() *TraceLink {
		sim := NewSim()
		tr := traceOf(
			trace.Opportunity{At: 1 * time.Millisecond, Bytes: 1000},
			trace.Opportunity{At: 2 * time.Millisecond, Bytes: 1000},
			trace.Opportunity{At: 3 * time.Millisecond, Bytes: 1000},
		)
		return NewTraceLink(sim, NewDropTail(10_000), tr, time.Millisecond, &collector{sim: sim}, true, 1)
	}
	load := func(mutate func(*TraceLink)) error {
		donor := build()
		donor.opIdx, donor.headServed = 2, 400
		mutate(donor)
		e := snap.NewEncoder()
		donor.Walk(snap.Save(e))
		blob, err := e.Encode(snap.Version)
		if err != nil {
			t.Fatal(err)
		}
		d, err := snap.Decode(blob, snap.Version)
		if err != nil {
			t.Fatal(err)
		}
		build().Walk(snap.Load(d))
		return d.Done()
	}
	if err := load(func(*TraceLink) {}); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}
	for name, mutate := range map[string]func(*TraceLink){
		"opIdx at len(Ops)":   func(l *TraceLink) { l.opIdx = 3 },
		"opIdx far past":      func(l *TraceLink) { l.opIdx = 1 << 40 },
		"negative opIdx":      func(l *TraceLink) { l.opIdx = -1 },
		"negative headServed": func(l *TraceLink) { l.headServed = -1 },
	} {
		if err := load(mutate); err == nil {
			t.Errorf("%s: snapshot accepted", name)
		}
	}
}

// TestHeapLoadRejectsEventBeforeClock: Schedule clamps the past, so no run
// holds an event earlier than its clock, and step would set now backwards on
// one. A snapshot that carries one fails the load; the same event at the
// clock is what a barrier legitimately leaves behind.
func TestHeapLoadRejectsEventBeforeClock(t *testing.T) {
	const barrier = 700 * time.Millisecond
	load := func(shift time.Duration) error {
		donor := buildSnapDumbbell()
		donor.Run(barrier)
		if donor.Sim.Pending() == 0 {
			t.Fatal("barrier has no pending events; the test would be vacuous")
		}
		donor.Sim.events[0].at = barrier + shift
		e := snap.NewEncoder()
		donor.Snapshot(e)
		blob, err := e.Encode(snap.Version)
		if err != nil {
			t.Fatal(err)
		}
		d, err := snap.Decode(blob, snap.Version)
		if err != nil {
			t.Fatal(err)
		}
		buildSnapDumbbell().Restore(d)
		return d.Done()
	}
	if err := load(0); err != nil {
		t.Fatalf("event at the restored clock rejected: %v", err)
	}
	err := load(-time.Nanosecond)
	if err == nil || !strings.Contains(err.Error(), "before the restored clock") {
		t.Fatalf("event before the restored clock: err = %v", err)
	}
}

// TestHeapLoadRejectsKindMismatch: one registry holds packet receivers,
// callbacks and timers, so an id found there does not by itself vouch for
// the saved kind byte. An id that resolves to the wrong kind of receiver, or
// a kind byte no build writes, fails the load instead of resuming into a
// Receive(nil) its target cannot take.
func TestHeapLoadRejectsKindMismatch(t *testing.T) {
	build := func() (s *Sim, recvID, cbID, timerID int64) {
		s = NewSim()
		recvID = s.RegisterReceiver(&collector{sim: s})
		cbID = s.RegisterFunc(func() {}).(*callback).id
		timerID = derivedID(cbID, 1)
		s.restoreTimer(&timer{}, timerID, time.Millisecond, func() {}, false)
		return s, recvID, cbID, timerID
	}
	load := func(kind uint8, id int64) (*Sim, error) {
		e := snap.NewEncoder()
		w := snap.Save(e)
		w.Tag("heap")
		w.Len(1)
		at, seq := time.Millisecond, uint64(1)
		w.Dur(&at)
		w.U64(&seq)
		w.U8(&kind)
		w.I64(&id)
		if kind == snapEvPacket {
			p := &Packet{Seq: 7, Bytes: 100}
			WalkPacket(w, &p)
		}
		blob, err := e.Encode(snap.Version)
		if err != nil {
			t.Fatal(err)
		}
		d, err := snap.Decode(blob, snap.Version)
		if err != nil {
			t.Fatal(err)
		}
		s, _, _, _ := build()
		s.WalkHeap(snap.Load(d))
		return s, d.Done()
	}
	_, recvID, cbID, timerID := build()
	for _, good := range []struct {
		kind uint8
		id   int64
	}{{snapEvPacket, recvID}, {snapEvFunc, cbID}, {snapEvTimer, timerID}} {
		if s, err := load(good.kind, good.id); err != nil || s.Pending() != 1 {
			t.Fatalf("kind %d, id %d: err %v, %d pending; want it loaded", good.kind, good.id, err, s.Pending())
		}
	}
	for name, bad := range map[string]struct {
		kind uint8
		id   int64
	}{
		"receiver id as callback": {snapEvFunc, recvID},
		"callback id as timer":    {snapEvTimer, cbID},
		"timer id as packet":      {snapEvPacket, timerID},
		"unknown kind":            {7, recvID},
	} {
		s, err := load(bad.kind, bad.id)
		if err == nil || !strings.Contains(err.Error(), "kind") {
			t.Errorf("%s: err = %v, want a kind error", name, err)
		}
		if s.Pending() != 0 {
			t.Errorf("%s: %d events pending after a failed load", name, s.Pending())
		}
	}
}
