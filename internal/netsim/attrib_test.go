package netsim

import (
	"testing"
	"time"

	"repro/internal/snap"
	"repro/internal/stats"
)

// TestPacketAttribTelescopes pins the accounting identity at the primitive
// level: MarkDelay charges each closed interval to the pending component, so
// after CloseDelay the components sum exactly — integer nanoseconds — to
// now-SentAt, and a clone taken mid-life carries the same ledger.
func TestPacketAttribTelescopes(t *testing.T) {
	sim := NewSim()
	p := sim.NewPacket(1, 0, 1000, time.Millisecond, 0)
	p.MarkDelay(3*time.Millisecond, stats.DelaySerialize)
	q := sim.ClonePacket(p)
	for _, pk := range []*Packet{p, q} {
		pk.MarkDelay(5*time.Millisecond, stats.DelayPropagate)
		pk.CloseDelay(9 * time.Millisecond)
	}
	if p.DelayComps() != q.DelayComps() {
		t.Fatalf("clone ledger diverges: %v vs %v", p.DelayComps(), q.DelayComps())
	}
	comps := p.DelayComps()
	want := [stats.NumDelayComps]time.Duration{
		stats.DelayQueue:     2 * time.Millisecond,
		stats.DelaySerialize: 2 * time.Millisecond,
		stats.DelayPropagate: 4 * time.Millisecond,
	}
	if comps != want {
		t.Fatalf("components = %v, want %v", comps, want)
	}
	var sum time.Duration
	for _, c := range comps {
		sum += c
	}
	if sum != 8*time.Millisecond {
		t.Fatalf("component sum = %v, want 8ms (= close - SentAt)", sum)
	}
	sim.FreePacket(p)
	sim.FreePacket(q)
}

// TestSnapshotPacketRoundTripsAttribution checks the checkpoint codec carries
// the attribution ledger: a packet snapshotted mid-interval restores with the
// same closed components AND the same open interval, so closing both at the
// same instant yields identical decompositions.
func TestSnapshotPacketRoundTripsAttribution(t *testing.T) {
	sim := NewSim()
	p := sim.NewPacket(2, 5, 1400, 2*time.Millisecond, 1)
	p.MarkDelay(6*time.Millisecond, stats.DelayFaultHold)

	e := snap.NewEncoder()
	WalkPacket(snap.Save(e), &p)
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	blob, err := e.Encode(snap.Version)
	if err != nil {
		t.Fatal(err)
	}
	d, err := snap.Decode(blob, snap.Version)
	if err != nil {
		t.Fatal(err)
	}
	var q *Packet
	WalkPacket(snap.Load(d), &q)
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	p.CloseDelay(11 * time.Millisecond)
	q.CloseDelay(11 * time.Millisecond)
	if p.DelayComps() != q.DelayComps() {
		t.Fatalf("restored ledger diverges: %v vs %v", q.DelayComps(), p.DelayComps())
	}
	comps := q.DelayComps()
	if comps[stats.DelayQueue] != 4*time.Millisecond || comps[stats.DelayFaultHold] != 5*time.Millisecond {
		t.Fatalf("restored components = %v, want queue 4ms / fault 5ms", comps)
	}
	sim.FreePacket(p)
	sim.FreePacket(q)
}

// TestSinkAttribIdentityEndToEnd runs controlled and CBR flows over a fixed
// dumbbell with attribution aggregates attached and requires the accounting
// identity to hold for every delivered packet — zero violations, zero
// negative components — with nonzero serialization and propagation charged.
func TestSinkAttribIdentityEndToEnd(t *testing.T) {
	sim := NewSim()
	var agg stats.Attribution
	NewDumbbell(sim, func(dst Receiver) Link {
		// Shallow lossy queue: drops, dup-acks, and retransmissions exercise
		// the ledger beyond the happy path.
		l := NewFixedLink(sim, NewDropTail(64_000), 6, 15*time.Millisecond, dst, 7)
		l.SetLossProb(0.02)
		return l
	}, 1400, []FlowSpec{
		{Ctrl: &fixedWindow{w: 12}, AckDelay: 10 * time.Millisecond, Attrib: &agg},
		{CBRMbps: 2, Attrib: &agg},
	})
	sim.Run(5 * time.Second)

	if agg.Count == 0 {
		t.Fatal("no deliveries recorded; identity check vacuous")
	}
	if agg.Violations != 0 || agg.Negatives != 0 {
		t.Fatalf("accounting identity broken: %d violations, %d negatives over %d packets",
			agg.Violations, agg.Negatives, agg.Count)
	}
	var sum int64
	for c := 0; c < stats.NumDelayComps; c++ {
		sum += agg.CompNs[c]
	}
	if sum != agg.TotalNs {
		t.Fatalf("aggregate sum %d ns != total %d ns", sum, agg.TotalNs)
	}
	if agg.CompNs[stats.DelaySerialize] == 0 || agg.CompNs[stats.DelayPropagate] == 0 {
		t.Fatalf("expected nonzero serialization and propagation: %v", agg.CompNs)
	}
}

// TestAttribPathZeroAllocs extends the steady-state allocation pin to the
// attribution-enabled delivery path: stamping lives inside the pooled packet
// and Attribution.Record is pure integer arithmetic, so the pin stays at
// exactly zero allocations per packet.
func TestAttribPathZeroAllocs(t *testing.T) {
	sim := NewSim()
	var agg stats.Attribution
	NewDumbbell(sim, func(dst Receiver) Link {
		return NewFixedLink(sim, NewDropTail(1<<20), 100, time.Millisecond, dst, 1)
	}, 1400, []FlowSpec{{CBRMbps: 60, Attrib: &agg}})
	sim.Run(200 * time.Millisecond) // warm heap, ring, and pool
	next := sim.Now()
	allocs := testing.AllocsPerRun(100, func() {
		next += 20 * time.Millisecond
		sim.Run(next)
	})
	if allocs != 0 {
		t.Fatalf("attribution path allocates %.1f/run in steady state, want 0", allocs)
	}
	if agg.Count == 0 || agg.Violations != 0 {
		t.Fatalf("implausible aggregate after warm run: %+v", agg)
	}
}
