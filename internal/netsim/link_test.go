package netsim

import (
	"math"
	"testing"
	"time"

	"repro/internal/trace"
)

type collector struct {
	pkts  []*Packet
	times []time.Duration
	sim   *Sim
}

func (c *collector) Receive(p *Packet) {
	c.pkts = append(c.pkts, p)
	c.times = append(c.times, c.sim.Now())
}

func TestFixedLinkSerialization(t *testing.T) {
	sim := NewSim()
	dst := &collector{sim: sim}
	// 8 Mbps, no prop delay: a 1000-byte packet takes 1 ms on the wire.
	l := NewFixedLink(sim, NewDropTail(1_000_000), 8, 0, dst, 1)
	sim.Schedule(0, func() {
		l.Send(pkt(0, 0, 1000))
		l.Send(pkt(0, 1, 1000))
	})
	sim.Run(time.Second)
	if len(dst.pkts) != 2 {
		t.Fatalf("delivered %d, want 2", len(dst.pkts))
	}
	if dst.times[0] != time.Millisecond || dst.times[1] != 2*time.Millisecond {
		t.Fatalf("delivery times %v", dst.times)
	}
}

func TestFixedLinkPropDelay(t *testing.T) {
	sim := NewSim()
	dst := &collector{sim: sim}
	l := NewFixedLink(sim, NewDropTail(1_000_000), 8, 10*time.Millisecond, dst, 1)
	sim.Schedule(0, func() { l.Send(pkt(0, 0, 1000)) })
	sim.Run(time.Second)
	if dst.times[0] != 11*time.Millisecond {
		t.Fatalf("delivery at %v, want 11ms", dst.times[0])
	}
}

func TestFixedLinkRateChange(t *testing.T) {
	sim := NewSim()
	dst := &collector{sim: sim}
	l := NewFixedLink(sim, NewDropTail(1_000_000), 8, 0, dst, 1)
	sim.Schedule(0, func() { l.Send(pkt(0, 0, 1000)) })
	sim.Schedule(500*time.Microsecond, func() { l.SetRateMbps(80) }) // mid-serialization
	sim.Schedule(2*time.Millisecond, func() { l.Send(pkt(0, 1, 1000)) })
	sim.Run(time.Second)
	// First packet keeps old rate (1 ms); second serializes at 0.1 ms.
	if dst.times[0] != time.Millisecond {
		t.Fatalf("first delivery %v", dst.times[0])
	}
	want := 2*time.Millisecond + 100*time.Microsecond
	if dst.times[1] != want {
		t.Fatalf("second delivery %v, want %v", dst.times[1], want)
	}
	if l.rateBps != 80e6 {
		t.Fatalf("rate = %v bit/s", l.rateBps)
	}
}

func TestFixedLinkLoss(t *testing.T) {
	sim := NewSim()
	dst := &collector{sim: sim}
	l := NewFixedLink(sim, NewDropTail(10_000_000), 100, 0, dst, 3)
	l.SetLossProb(0.5)
	sim.Schedule(0, func() {
		for i := int64(0); i < 1000; i++ {
			l.Send(pkt(0, i, 100))
		}
	})
	sim.Run(time.Minute)
	got := float64(len(dst.pkts)) / 1000
	if math.Abs(got-0.5) > 0.08 {
		t.Fatalf("delivery ratio %v with 50%% loss", got)
	}
	if int(l.Delivered)+int(l.Lost) != 1000 {
		t.Fatalf("accounting: delivered %d + lost %d != 1000", l.Delivered, l.Lost)
	}
}

func TestFixedLinkValidation(t *testing.T) {
	sim := NewSim()
	for _, f := range []func(){
		func() { NewFixedLink(sim, NewDropTail(1000), 0, 0, ReceiverFunc(func(*Packet) {}), 1) },
		func() {
			l := NewFixedLink(sim, NewDropTail(1000), 1, 0, ReceiverFunc(func(*Packet) {}), 1)
			l.SetRateMbps(-1)
		},
		func() {
			l := NewFixedLink(sim, NewDropTail(1000), 1, 0, ReceiverFunc(func(*Packet) {}), 1)
			l.SetLossProb(1.5)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid link parameter accepted")
				}
			}()
			f()
		}()
	}
}

func traceOf(ops ...trace.Opportunity) *trace.Trace {
	tr := &trace.Trace{Name: "t", Ops: ops}
	if len(ops) > 0 {
		tr.Duration = ops[len(ops)-1].At + time.Millisecond
	}
	return tr
}

func TestTraceLinkDeliversAtOpportunities(t *testing.T) {
	sim := NewSim()
	dst := &collector{sim: sim}
	tr := traceOf(
		trace.Opportunity{At: 5 * time.Millisecond, Bytes: 2000},
		trace.Opportunity{At: 9 * time.Millisecond, Bytes: 1000},
	)
	l := NewTraceLink(sim, NewDropTail(1_000_000), tr, 0, dst, false, 1)
	sim.Schedule(0, func() {
		for i := int64(0); i < 3; i++ {
			l.Send(pkt(0, i, 1000))
		}
	})
	sim.Run(time.Second)
	if len(dst.pkts) != 3 {
		t.Fatalf("delivered %d, want 3", len(dst.pkts))
	}
	if dst.times[0] != 5*time.Millisecond || dst.times[1] != 5*time.Millisecond {
		t.Fatalf("first opportunity deliveries at %v", dst.times[:2])
	}
	if dst.times[2] != 9*time.Millisecond {
		t.Fatalf("second opportunity delivery at %v", dst.times[2])
	}
}

func TestTraceLinkSegmentationCarriesOver(t *testing.T) {
	sim := NewSim()
	dst := &collector{sim: sim}
	// A 1500-byte packet served by two 1000-byte opportunities.
	tr := traceOf(
		trace.Opportunity{At: 1 * time.Millisecond, Bytes: 1000},
		trace.Opportunity{At: 2 * time.Millisecond, Bytes: 1000},
	)
	l := NewTraceLink(sim, NewDropTail(1_000_000), tr, 0, dst, false, 1)
	sim.Schedule(0, func() { l.Send(pkt(0, 0, 1500)) })
	sim.Run(time.Second)
	if len(dst.pkts) != 1 {
		t.Fatalf("delivered %d, want 1", len(dst.pkts))
	}
	if dst.times[0] != 2*time.Millisecond {
		t.Fatalf("packet completed at %v, want 2ms", dst.times[0])
	}
}

func TestTraceLinkWastesIdleCapacity(t *testing.T) {
	sim := NewSim()
	dst := &collector{sim: sim}
	tr := traceOf(
		trace.Opportunity{At: 1 * time.Millisecond, Bytes: 5000}, // idle: wasted
		trace.Opportunity{At: 10 * time.Millisecond, Bytes: 1000},
	)
	l := NewTraceLink(sim, NewDropTail(1_000_000), tr, 0, dst, false, 1)
	sim.Schedule(5*time.Millisecond, func() { l.Send(pkt(0, 0, 1000)) })
	sim.Run(time.Second)
	if l.WastedBytes != 5000 {
		t.Fatalf("WastedBytes = %d, want 5000", l.WastedBytes)
	}
	if len(dst.pkts) != 1 || dst.times[0] != 10*time.Millisecond {
		t.Fatalf("delivery: %d pkts, times %v", len(dst.pkts), dst.times)
	}
}

func TestTraceLinkLoops(t *testing.T) {
	sim := NewSim()
	dst := &collector{sim: sim}
	tr := traceOf(trace.Opportunity{At: 1 * time.Millisecond, Bytes: 1000})
	tr.Duration = 2 * time.Millisecond
	l := NewTraceLink(sim, NewDropTail(1_000_000), tr, 0, dst, true, 1)
	sim.Schedule(0, func() {
		for i := int64(0); i < 3; i++ {
			l.Send(pkt(0, i, 1000))
		}
	})
	sim.Run(10 * time.Millisecond)
	if len(dst.pkts) != 3 {
		t.Fatalf("looped trace delivered %d, want 3", len(dst.pkts))
	}
	// Opportunities at 1, 3, 5 ms.
	want := []time.Duration{1 * time.Millisecond, 3 * time.Millisecond, 5 * time.Millisecond}
	for i, w := range want {
		if dst.times[i] != w {
			t.Fatalf("delivery %d at %v, want %v", i, dst.times[i], w)
		}
	}
}

func TestTraceLinkEndsWithoutLoop(t *testing.T) {
	sim := NewSim()
	dst := &collector{sim: sim}
	tr := traceOf(trace.Opportunity{At: 1 * time.Millisecond, Bytes: 1000})
	l := NewTraceLink(sim, NewDropTail(1_000_000), tr, 0, dst, false, 1)
	sim.Schedule(2*time.Millisecond, func() { l.Send(pkt(0, 0, 1000)) })
	sim.Run(time.Second)
	if len(dst.pkts) != 0 {
		t.Fatal("packet delivered after trace ended")
	}
	if l.Queue().Len() != 1 {
		t.Fatal("packet should remain queued")
	}
}

func TestTraceLinkLoss(t *testing.T) {
	sim := NewSim()
	dst := &collector{sim: sim}
	ops := make([]trace.Opportunity, 1000)
	for i := range ops {
		ops[i] = trace.Opportunity{At: time.Duration(i+1) * time.Millisecond, Bytes: 1000}
	}
	l := NewTraceLink(sim, NewDropTail(10_000_000), traceOf(ops...), 0, dst, false, 5)
	l.SetLossProb(0.3)
	sim.Schedule(0, func() {
		for i := int64(0); i < 1000; i++ {
			l.Send(pkt(0, i, 1000))
		}
	})
	sim.Run(time.Hour)
	got := float64(len(dst.pkts)) / 1000
	if math.Abs(got-0.7) > 0.08 {
		t.Fatalf("delivery ratio %v with 30%% loss", got)
	}
}

func TestTraceLinkRequiresOps(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty trace should panic")
		}
	}()
	NewTraceLink(NewSim(), NewDropTail(1000), &trace.Trace{}, 0, ReceiverFunc(func(*Packet) {}), false, 1)
}
