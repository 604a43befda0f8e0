package netsim

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/trace"
)

// Packet-conservation properties over randomized dumbbell runs: every packet
// a source sends is accounted for exactly once — dropped at the queue, lost
// on the link, still queued, in flight, or delivered — and the per-flow
// Metrics agree with the link's own counters.

// queueDrops reads the drop counter of either queue implementation.
func queueDrops(q Queue) int64 {
	switch q := q.(type) {
	case *DropTail:
		return int64(q.Drops)
	case *RED:
		return int64(q.Drops)
	default:
		panic("unknown queue type")
	}
}

// randomQueue builds a DropTail or RED queue from the rng.
func randomQueue(rng *rand.Rand) Queue {
	if rng.Intn(2) == 0 {
		return NewDropTail(20_000 + rng.Intn(400_000))
	}
	min := 10_000 + rng.Intn(50_000)
	max := min*2 + rng.Intn(200_000)
	return NewRED(min, max, 0.02+rng.Float64()*0.3, rng.Int63())
}

// randomSpecs builds 1-5 CBR flows with random rates, duty cycles, and MTUs.
// CBR flows stop cleanly at `stop`, which lets the bottleneck drain fully.
func randomSpecs(rng *rand.Rand, stop time.Duration) []FlowSpec {
	specs := make([]FlowSpec, 1+rng.Intn(5))
	for i := range specs {
		specs[i] = FlowSpec{
			CBRMbps: 0.5 + rng.Float64()*15,
			Stop:    stop,
			MTU:     200 + rng.Intn(1400),
		}
		if rng.Intn(3) == 0 {
			specs[i].OnFor = time.Duration(1+rng.Intn(3)) * time.Second
			specs[i].OffFor = time.Duration(1+rng.Intn(3)) * time.Second
		}
	}
	return specs
}

func checkFlowAccounting(t *testing.T, d *Dumbbell, specs []FlowSpec) {
	t.Helper()
	for i, m := range d.Metrics {
		mtu := specs[i].MTU
		if got, want := m.Throughput.TotalBytes(), m.Received*int64(mtu); got != want {
			t.Errorf("flow %d: throughput accounts %d B, but %d packets × %d B = %d",
				i, got, m.Received, mtu, want)
		}
	}
}

func TestConservationFixedLinkDrained(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sim := NewSim()
		rate := 1 + rng.Float64()*40
		q := randomQueue(rng)
		lossProb := 0.0
		if rng.Intn(2) == 0 {
			lossProb = rng.Float64() * 0.05
		}
		var link *FixedLink
		stop := time.Duration(3+rng.Intn(8)) * time.Second
		specs := randomSpecs(rng, stop)
		d := NewDumbbell(sim, func(dst Receiver) Link {
			link = NewFixedLink(sim, q, rate, time.Duration(rng.Intn(50))*time.Millisecond, dst, seed+100)
			link.SetLossProb(lossProb)
			return link
		}, 1400, specs)

		// Mid-run: a packet may sit between Dequeue and its serialization
		// completion, so the identity holds with at most one in service.
		sim.Run(stop / 2)
		var sent int64
		for _, m := range d.Metrics {
			sent += m.Sent
		}
		inService := sent - queueDrops(q) - link.Delivered - link.Lost - int64(q.Len())
		if inService < 0 || inService > 1 {
			t.Errorf("seed %d mid-run: sent=%d drops=%d delivered=%d lost=%d queued=%d → %d in service (want 0 or 1)",
				seed, sent, queueDrops(q), link.Delivered, link.Lost, q.Len(), inService)
		}

		// After the flows stop, run long enough for the queue to serialize
		// out and the last propagation events to land.
		drain := time.Duration(float64(q.Bytes()*8)/(rate*1e6)*float64(time.Second)) + 2*time.Second
		sim.Run(stop + drain)

		sent = 0
		for _, m := range d.Metrics {
			sent += m.Sent
		}
		if q.Len() != 0 || q.Bytes() != 0 {
			t.Fatalf("seed %d: queue not drained: %d packets / %d B", seed, q.Len(), q.Bytes())
		}
		if got := queueDrops(q) + link.Delivered + link.Lost; got != sent {
			t.Errorf("seed %d: conservation broken: sent=%d but drops=%d + delivered=%d + lost=%d = %d",
				seed, sent, queueDrops(q), link.Delivered, link.Lost, got)
		}
		var received int64
		for _, m := range d.Metrics {
			received += m.Received
		}
		if received != link.Delivered {
			t.Errorf("seed %d: sinks received %d packets but link delivered %d", seed, received, link.Delivered)
		}
		checkFlowAccounting(t, d, specs)
	}
}

// syntheticTrace builds a periodic delivery-opportunity trace of the given
// aggregate rate for TraceLink conservation runs.
func syntheticTrace(rng *rand.Rand, d time.Duration) *trace.Trace {
	tr := &trace.Trace{Duration: d}
	every := time.Duration(1+rng.Intn(10)) * time.Millisecond
	bytes := 1500 * (1 + rng.Intn(10))
	for at := time.Duration(0); at < d; at += every {
		tr.Ops = append(tr.Ops, trace.Opportunity{At: at, Bytes: bytes})
	}
	return tr
}

// chaosIngress is a minimal upstream fault decorator: before a packet
// reaches the bottleneck queue it may be dropped or duplicated. It models
// what internal/faults does from outside the package, so these invariants
// hold for any conforming decorator, not just ours.
type chaosIngress struct {
	sim      *Sim
	inner    Link
	rng      *rand.Rand
	dropP    float64
	dupP     float64
	drops    int64
	dups     int64
	ingested int64 // packets actually offered to the inner link
}

func (c *chaosIngress) Queue() Queue { return c.inner.Queue() }

func (c *chaosIngress) Send(p *Packet) {
	if c.rng.Float64() < c.dropP {
		c.drops++
		c.sim.FreePacket(p)
		return
	}
	c.ingested++
	// A conforming duplicator clones through the pool before handing the
	// original downstream (inner.Send may release a rejected packet
	// immediately), and each copy is then dropped/delivered/released
	// independently.
	var dup *Packet
	if c.rng.Float64() < c.dupP {
		c.dups++
		c.ingested++
		dup = c.sim.ClonePacket(p)
	}
	c.inner.Send(p)
	if dup != nil {
		c.inner.Send(dup)
	}
}

// TestConservationUpstreamFaults drives random CBR mixes through a
// drop/duplicate decorator into both queue disciplines and checks that the
// queue's own accounting (Drops, Len, Bytes) plus the link counters still
// balance: conservation must hold for the packets the queue actually saw,
// with duplicates counted per copy.
func TestConservationUpstreamFaults(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		sim := NewSim()
		q := randomQueue(rng)
		rate := 1 + rng.Float64()*30
		var link *FixedLink
		var chaos *chaosIngress
		stop := time.Duration(3+rng.Intn(5)) * time.Second
		specs := randomSpecs(rng, stop)
		d := NewDumbbell(sim, func(dst Receiver) Link {
			link = NewFixedLink(sim, q, rate, time.Duration(rng.Intn(40))*time.Millisecond, dst, seed+300)
			chaos = &chaosIngress{
				sim:   sim,
				inner: link,
				rng:   rand.New(rand.NewSource(seed + 400)),
				dropP: rng.Float64() * 0.2,
				dupP:  rng.Float64() * 0.2,
			}
			return chaos
		}, 1400, specs)

		drainTime := stop + 10*time.Second
		sim.Run(drainTime)

		var sent int64
		for _, m := range d.Metrics {
			sent += m.Sent
		}
		// Decorator ledger: every source packet was either dropped upstream
		// or offered to the queue; duplicates add offered copies.
		if got := chaos.drops + chaos.ingested - chaos.dups; got != sent {
			t.Errorf("seed %d: decorator ledger: sent=%d but drops=%d + ingested=%d - dups=%d = %d",
				seed, sent, chaos.drops, chaos.ingested, chaos.dups, got)
		}
		// Queue+link ledger over offered copies: each was tail/RED-dropped,
		// lost, delivered, or still queued (zero after drain).
		if q.Len() != 0 || q.Bytes() != 0 {
			t.Fatalf("seed %d: queue not drained: %d packets / %d B", seed, q.Len(), q.Bytes())
		}
		if got := queueDrops(q) + link.Delivered + link.Lost; got != chaos.ingested {
			t.Errorf("seed %d: queue conservation under faults: offered=%d but drops=%d + delivered=%d + lost=%d = %d",
				seed, chaos.ingested, queueDrops(q), link.Delivered, link.Lost, got)
		}
		var received int64
		for _, m := range d.Metrics {
			received += m.Received
		}
		if received != link.Delivered {
			t.Errorf("seed %d: sinks received %d but link delivered %d", seed, received, link.Delivered)
		}
	}
}

// shardLedger is the per-cell accounting for the cross-shard conservation
// runs: forwards[i] counts packets cell i handed into a lookahead channel,
// arrivals[i] counts channel packets that have reached cell i's timeline and
// been re-offered to its link. Each cell's entries are written only from that
// cell's timeline, so the ledger is race-free under sharded execution.
type shardLedger struct {
	forwards []int64
	arrivals []int64
}

// buildConservationMesh wires cells cells each with a FixedLink fed by CBR
// flows; every delivered packet with Seq%3 == 0 still in its origin cell is
// forwarded over the mesh into the next cell's link (one hop max, so traffic
// always drains). Returns per-cell links, queues, metrics, and the ledger.
func buildConservationMesh(rng *rand.Rand, m *Mesh, stop time.Duration) (
	links []*FixedLink, queues []Queue, metrics []*FlowMetrics, led *shardLedger) {
	n := m.Cells()
	led = &shardLedger{forwards: make([]int64, n), arrivals: make([]int64, n)}
	links = make([]*FixedLink, n)
	queues = make([]Queue, n)
	for i := 0; i < n; i++ {
		sim := m.Cell(i)
		queues[i] = randomQueue(rng)
		rate := 2 + rng.Float64()*20
		loss := 0.0
		if rng.Intn(3) == 0 {
			loss = rng.Float64() * 0.04
		}
		recv := ReceiverFunc(func(p *Packet) {
			if n > 1 && p.Flow/100 == i && p.Seq%3 == 0 {
				dst := (i + 1) % n
				pkt := p
				led.forwards[i]++
				m.send(i, dst, m.Lookahead()+2*time.Millisecond, thunk(func() {
					led.arrivals[dst]++
					links[dst].Send(pkt)
				}), nil)
			}
		})
		links[i] = NewFixedLink(sim, queues[i], rate, time.Duration(rng.Intn(20))*time.Millisecond, recv, rng.Int63())
		if loss > 0 {
			links[i].SetLossProb(loss)
		}
		for j := 0; j < 1+rng.Intn(3); j++ {
			_, fm := NewCBR(sim, i*100+j, links[i], 300+rng.Intn(1100),
				0.5+rng.Float64()*4, 0, stop, 0, 0)
			metrics = append(metrics, fm)
		}
	}
	return links, queues, metrics, led
}

// TestConservationAcrossShards extends the packet-conservation identity over
// shard boundaries: every packet offered to any link — by a source or by a
// cross-cell arrival — is dropped, lost, delivered, queued, or in service,
// and packets inside lookahead channels at snapshot time (forwarded but not
// yet arrived) balance the forward/arrival ledgers exactly. The identity
// must hold mid-run and exactly at quiescence, on both executors, and the
// totals must agree between them.
func TestConservationAcrossShards(t *testing.T) {
	type totals struct {
		sent, arrived, drops, lost, delivered, forwards int64
	}
	for seed := int64(0); seed < 10; seed++ {
		byMode := map[string]totals{}
		for _, mode := range []string{"single", "sharded"} {
			rng := rand.New(rand.NewSource(seed ^ 0x5ca1e))
			cells := 2 + rng.Intn(5)
			m := NewMesh(cells, time.Duration(1+rng.Intn(8))*time.Millisecond)
			stop := 1500 * time.Millisecond
			links, queues, metrics, led := buildConservationMesh(rng, m, stop)
			shards := 1 + rng.Intn(cells)
			run := func(until time.Duration) {
				if mode == "single" {
					m.RunSingle(until)
				} else {
					m.RunSharded(until, shards)
				}
			}
			snapshot := func(label string, wantExact bool) totals {
				var tt totals
				for _, fm := range metrics {
					tt.sent += fm.Sent
				}
				var queued int64
				for i := range links {
					tt.drops += queueDrops(queues[i])
					tt.lost += links[i].Lost
					tt.delivered += links[i].Delivered
					queued += int64(queues[i].Len())
					tt.forwards += led.forwards[i]
					tt.arrived += led.arrivals[i]
				}
				// Offered = source sends + channel arrivals; every offer is
				// accounted, with at most one packet in service per cell.
				offered := tt.sent + tt.arrived
				accounted := tt.drops + tt.lost + tt.delivered + queued
				inService := offered - accounted
				if wantExact {
					if inService != 0 || queued != 0 {
						t.Errorf("seed %d %s %s: not quiescent: inService=%d queued=%d",
							seed, mode, label, inService, queued)
					}
					if tt.forwards != tt.arrived {
						t.Errorf("seed %d %s %s: %d packets still in lookahead channels at quiescence",
							seed, mode, label, tt.forwards-tt.arrived)
					}
				} else if inService < 0 || inService > int64(len(links)) {
					t.Errorf("seed %d %s %s: conservation broken: offered=%d accounted=%d (inService=%d, want 0..%d)",
						seed, mode, label, offered, accounted, inService, len(links))
				}
				// The lookahead-channel population can never go negative, and
				// after a run every channel message has been merged into its
				// destination heap (even if its arrival time is still ahead).
				if inChannel := tt.forwards - tt.arrived; inChannel < 0 {
					t.Errorf("seed %d %s %s: ledger inverted: arrivals %d > forwards %d",
						seed, mode, label, tt.arrived, tt.forwards)
				}
				if got := m.PendingCross(); got != 0 {
					t.Errorf("seed %d %s %s: %d messages left undrained between runs", seed, mode, label, got)
				}
				return tt
			}
			run(stop / 2)
			snapshot("mid-run", false)
			run(stop)
			snapshot("at-stop", false)
			run(stop + 15*time.Second)
			byMode[mode] = snapshot("drained", true)
		}
		if byMode["single"] != byMode["sharded"] {
			t.Errorf("seed %d: executor totals diverge: single=%+v sharded=%+v",
				seed, byMode["single"], byMode["sharded"])
		}
	}
}

// TestDropTailDuplicateBytes pins the byte accounting when the same *Packet
// is enqueued twice: Bytes() must count each copy, and both dequeues must
// return the packet.
func TestDropTailDuplicateBytes(t *testing.T) {
	q := NewDropTail(10_000)
	p := &Packet{Bytes: 1400}
	if !q.Enqueue(p, 0) || !q.Enqueue(p, 0) {
		t.Fatal("duplicate enqueue rejected below the byte limit")
	}
	if got := q.Bytes(); got != 2800 {
		t.Fatalf("Bytes() = %d after double enqueue, want 2800", got)
	}
	if q.Dequeue(0) != p || q.Dequeue(0) != p {
		t.Fatal("dequeues did not return both copies")
	}
	if got := q.Bytes(); got != 0 {
		t.Fatalf("Bytes() = %d after draining duplicates, want 0", got)
	}
}

// TestREDIdleDecayAfterUpstreamOutage pins RED's idle handling around a
// fault window: if an upstream outage starves the queue, the average must
// decay during the idle gap rather than freeze at its peak and blackhole
// the post-outage burst.
func TestREDIdleDecayAfterUpstreamOutage(t *testing.T) {
	q := NewRED(10_000, 30_000, 0.1, 1)
	now := time.Duration(0)
	// Drive the average well above the min threshold.
	for i := 0; i < 200; i++ {
		p := &Packet{Bytes: 1400}
		q.Enqueue(p, now)
		now += time.Millisecond
		if q.Bytes() > 25_000 {
			q.Dequeue(now)
		}
	}
	if q.avg < float64(q.MinBytes) {
		t.Skipf("average %f never crossed min threshold; test setup too weak", q.avg)
	}
	for q.Len() > 0 {
		q.Dequeue(now)
	}
	peak := q.avg
	// A 10 s starvation gap (outage upstream), then traffic resumes.
	now += 10 * time.Second
	if !q.Enqueue(&Packet{Bytes: 1400}, now) {
		t.Fatal("first post-outage packet dropped; idle decay failed")
	}
	if got := q.avg; got >= peak {
		t.Fatalf("average did not decay across the idle gap: %f → %f", peak, got)
	}
}

func TestConservationTraceLinkInvariant(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sim := NewSim()
		q := randomQueue(rng)
		tr := syntheticTrace(rng, 2*time.Second)
		var link *TraceLink
		stop := time.Duration(3+rng.Intn(5)) * time.Second
		specs := randomSpecs(rng, stop)
		d := NewDumbbell(sim, func(dst Receiver) Link {
			link = NewTraceLink(sim, q, tr, time.Duration(rng.Intn(40))*time.Millisecond, dst, true, seed+200)
			if rng.Intn(2) == 0 {
				link.SetLossProb(rng.Float64() * 0.05)
			}
			return link
		}, 1400, specs)

		// TraceLink counts a packet the instant it is dequeued, so the
		// conservation identity is exact at every observation point.
		check := func(at time.Duration) {
			sim.Run(at)
			var sent int64
			for _, m := range d.Metrics {
				sent += m.Sent
			}
			if got := queueDrops(q) + link.Delivered + link.Lost + int64(q.Len()); got != sent {
				t.Errorf("seed %d at %v: sent=%d but drops=%d + delivered=%d + lost=%d + queued=%d = %d",
					seed, at, sent, queueDrops(q), link.Delivered, link.Lost, q.Len(), got)
			}
		}
		check(stop / 2)
		check(stop)
		check(stop + 10*time.Second) // loop=true: the trace keeps draining

		if q.Len() != 0 {
			t.Fatalf("seed %d: queue not drained after 10 s of idle channel: %d packets", seed, q.Len())
		}
		var received int64
		for _, m := range d.Metrics {
			received += m.Received
		}
		if received != link.Delivered {
			t.Errorf("seed %d: sinks received %d packets but link delivered %d", seed, received, link.Delivered)
		}
		checkFlowAccounting(t, d, specs)
	}
}
