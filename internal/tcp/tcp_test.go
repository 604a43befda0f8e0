package tcp

import (
	"math"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/netsim"
)

func ackAt(seq int64, rtt time.Duration) cc.AckSample {
	return cc.AckSample{Seq: seq, RTT: rtt}
}

func TestNewRenoSlowStartDoubles(t *testing.T) {
	c := NewNewReno()
	w0 := c.cwnd
	// Acking a full window in slow start adds one per ack.
	for i := int64(0); i < 10; i++ {
		c.OnSend(0, i, 0)
		c.OnAck(0, ackAt(i, 50*time.Millisecond))
	}
	if got := c.cwnd; got != w0+10 {
		t.Fatalf("cwnd = %v, want %v", got, w0+10)
	}
	if c.cwnd >= c.ssthresh {
		t.Fatal("should be in slow start with huge ssthresh")
	}
}

func TestNewRenoCongestionAvoidanceLinear(t *testing.T) {
	c := NewNewReno()
	c.cwnd = 10
	c.ssthresh = 5
	// One window of acks adds ~1 packet.
	for i := int64(0); i < 10; i++ {
		c.OnSend(0, i, 0)
		c.OnAck(0, ackAt(i, 50*time.Millisecond))
	}
	if got := c.cwnd; math.Abs(got-11) > 0.2 {
		t.Fatalf("cwnd after one CA window = %v, want ≈11", got)
	}
}

func TestNewRenoLossHalves(t *testing.T) {
	c := NewNewReno()
	c.cwnd = 20
	c.ssthresh = 5
	c.OnSend(0, 100, 0)
	c.OnLoss(0, cc.LossEvent{Seq: 50})
	if got := c.cwnd; got != 10 {
		t.Fatalf("cwnd after loss = %v, want 10", got)
	}
	// Second loss in the same window: no further reduction.
	c.OnLoss(0, cc.LossEvent{Seq: 51})
	if got := c.cwnd; got != 10 {
		t.Fatalf("cwnd after in-window loss = %v, want 10", got)
	}
	// No growth while recovering.
	c.OnAck(0, ackAt(60, 50*time.Millisecond))
	if c.cwnd != 10 {
		t.Fatal("grew during recovery")
	}
	// Ack beyond the recovery point resumes growth.
	c.OnAck(0, ackAt(101, 50*time.Millisecond))
	if c.cwnd <= 10 {
		t.Fatal("did not resume growth after recovery")
	}
}

func TestNewRenoTimeout(t *testing.T) {
	c := NewNewReno()
	c.cwnd = 16
	c.OnTimeout(0)
	if c.cwnd != 1 {
		t.Fatalf("cwnd after RTO = %v, want 1", c.cwnd)
	}
	if c.ssthresh != 8 {
		t.Fatalf("ssthresh = %v, want 8", c.ssthresh)
	}
	if c.cwnd >= c.ssthresh {
		t.Fatal("should slow-start after RTO")
	}
}

func TestNewRenoAllowance(t *testing.T) {
	c := NewNewReno()
	c.cwnd = 7
	if got := c.Allowance(0, 3); got != 4 {
		t.Fatalf("allowance = %d, want 4", got)
	}
	if got := c.Allowance(0, 10); got >= 0 {
		// Negative allowance is fine (host clamps); just ensure no panic.
		t.Logf("allowance = %d", got)
	}
}

func TestCubicSlowStartThenCubicGrowth(t *testing.T) {
	c := NewCubic()
	c.ssthresh = 10
	now := time.Duration(0)
	seq := int64(0)
	for c.cwnd < 10 {
		c.OnSend(now, seq, 0)
		c.OnAck(now, ackAt(seq, 40*time.Millisecond))
		seq++
		now += 4 * time.Millisecond
	}
	// In congestion avoidance now; growth should continue over time.
	w := c.cwnd
	for i := 0; i < 500; i++ {
		c.OnSend(now, seq, 0)
		c.OnAck(now, ackAt(seq, 40*time.Millisecond))
		seq++
		now += 4 * time.Millisecond
	}
	if c.cwnd <= w {
		t.Fatalf("cubic did not grow: %v -> %v", w, c.cwnd)
	}
}

func TestCubicLossBeta(t *testing.T) {
	c := NewCubic()
	c.cwnd = 100
	c.ssthresh = 10
	c.OnSend(0, 1000, 0)
	c.OnLoss(0, cc.LossEvent{Seq: 500})
	if got := c.cwnd; math.Abs(got-70) > 0.5 {
		t.Fatalf("cwnd after loss = %v, want 70 (β=0.7)", got)
	}
	if c.wMax != 100 {
		t.Fatalf("wMax = %v, want 100", c.wMax)
	}
}

func TestCubicConcaveThenConvex(t *testing.T) {
	// After a loss, growth is fast initially (concave), slows near wMax,
	// then accelerates past it (convex). Use a large wMax so the cubic term
	// dominates the TCP-friendly bound throughout.
	c := NewCubic()
	c.cwnd = 1000
	c.ssthresh = 10
	c.srtt = 40 * time.Millisecond
	c.OnSend(0, 0, 0)
	c.OnLoss(0, cc.LossEvent{})
	now := time.Duration(0)
	seq := int64(1)
	c.OnAck(now, ackAt(seq, 40*time.Millisecond)) // exits recovery (seq >= lastSent)

	var atK float64
	var kDur time.Duration
	for i := 0; ; i++ {
		c.OnSend(now, seq, 0)
		c.OnAck(now, ackAt(seq, 40*time.Millisecond))
		seq++
		now += 2 * time.Millisecond
		if i == 0 {
			// k is set on the first congestion-avoidance ack.
			kDur = time.Duration(c.k * float64(time.Second))
		}
		if atK == 0 && now >= kDur {
			atK = c.cwnd
		}
		if now >= kDur+5*time.Second {
			break
		}
	}
	// At t=K the window should be back near wMax = 1000.
	if math.Abs(atK-1000) > 100 {
		t.Fatalf("cwnd at K = %v, want ≈1000 (K=%v)", atK, kDur)
	}
	if c.cwnd <= atK {
		t.Fatal("no convex growth past wMax")
	}
}

func TestCubicTimeout(t *testing.T) {
	c := NewCubic()
	c.cwnd = 50
	c.OnTimeout(0)
	if c.cwnd != 1 {
		t.Fatalf("cwnd = %v, want 1", c.cwnd)
	}
}

func TestVegasHoldsSmallBacklog(t *testing.T) {
	// Closed loop on the simulator: Vegas should keep delay near base RTT
	// (small queue) on a stable link.
	sim := netsim.NewSim()
	v := NewVegas()
	d := netsim.NewDumbbell(sim, func(dst netsim.Receiver) netsim.Link {
		return netsim.NewFixedLink(sim, netsim.NewDropTail(1_000_000), 10, 10*time.Millisecond, dst, 1)
	}, 1400, []netsim.FlowSpec{{Ctrl: v, AckDelay: 10 * time.Millisecond}})
	d.Run(20 * time.Second)
	m := d.Metrics[0]
	if tput := m.MeanMbps(20 * time.Second); tput < 5 {
		t.Errorf("vegas throughput = %.2f Mbps, want >= 5", tput)
	}
	// α..β backlog of 2-4 packets ≈ 2-4 × 1.12 ms of queueing.
	if p95 := m.Delay.Percentile(95); p95 > 0.08 {
		t.Errorf("vegas p95 delay = %.0f ms; queue not kept small", p95*1000)
	}
}

func TestVegasDecreasesOnRisingRTT(t *testing.T) {
	v := NewVegas()
	v.slowStart = false
	v.cwnd = 20
	v.baseRTT = 20 * time.Millisecond
	seq := int64(0)
	// Several RTT rounds at high RTT → diff = 20*(60-20)/60 ≈ 13 > β.
	w0 := v.cwnd
	for round := 0; round < 5; round++ {
		for i := 0; i < 5; i++ {
			v.OnSend(0, seq, 0)
			v.OnAck(0, ackAt(seq, 60*time.Millisecond))
			seq++
		}
	}
	if v.cwnd >= w0 {
		t.Fatalf("vegas did not back off: %v -> %v", w0, v.cwnd)
	}
}

func TestVegasIncreasesWhenBelowAlpha(t *testing.T) {
	v := NewVegas()
	v.slowStart = false
	v.cwnd = 10
	v.baseRTT = 50 * time.Millisecond
	seq := int64(0)
	w0 := v.cwnd
	for round := 0; round < 5; round++ {
		for i := 0; i < 5; i++ {
			v.OnSend(0, seq, 0)
			// RTT barely above base: diff ≈ 10*(52-50)/52 ≈ 0.4 < α.
			v.OnAck(0, ackAt(seq, 52*time.Millisecond))
			seq++
		}
	}
	if v.cwnd <= w0 {
		t.Fatalf("vegas did not grow: %v -> %v", w0, v.cwnd)
	}
}

func TestVegasLossHalves(t *testing.T) {
	v := NewVegas()
	v.cwnd = 30
	v.OnSend(0, 5, 0)
	v.OnLoss(0, cc.LossEvent{})
	if v.cwnd != 15 {
		t.Fatalf("cwnd = %v, want 15", v.cwnd)
	}
}

func TestControllersNeverPanicOnColdEvents(t *testing.T) {
	// Events in odd orders must not panic (host may deliver a timeout
	// before any ack, etc.).
	for _, ctrl := range []cc.Controller{NewNewReno(), NewCubic(), NewVegas()} {
		ctrl.OnTimeout(0)
		ctrl.OnLoss(0, cc.LossEvent{})
		ctrl.OnAck(0, ackAt(0, time.Millisecond))
		ctrl.Tick(0)
		if ctrl.Allowance(0, 0) < 0 {
			t.Errorf("%s: negative allowance with zero inflight", ctrl.Name())
		}
		if ctrl.SendTag() < 0 {
			t.Errorf("%s: negative send tag", ctrl.Name())
		}
	}
}

// The headline qualitative contrast: on a deep-buffered link, Cubic fills
// the queue (bufferbloat) while Vegas does not. This is the §2/§3 backdrop
// for the whole paper.
func TestCubicBufferbloatVsVegas(t *testing.T) {
	run := func(ctrl cc.Controller) *netsim.FlowMetrics {
		sim := netsim.NewSim()
		d := netsim.NewDumbbell(sim, func(dst netsim.Receiver) netsim.Link {
			return netsim.NewFixedLink(sim, netsim.NewDropTail(1_500_000), 8, 15*time.Millisecond, dst, 1)
		}, 1400, []netsim.FlowSpec{{Ctrl: ctrl, AckDelay: 15 * time.Millisecond}})
		d.Run(30 * time.Second)
		return d.Metrics[0]
	}
	cubic := run(NewCubic())
	vegas := run(NewVegas())
	if cubic.MeanMbps(30*time.Second) < 6 {
		t.Errorf("cubic throughput = %.2f, want near link rate", cubic.MeanMbps(30*time.Second))
	}
	if cubic.Delay.Median() < 3*vegas.Delay.Median() {
		t.Errorf("bufferbloat contrast missing: cubic median %.0f ms vs vegas %.0f ms",
			cubic.Delay.Median()*1000, vegas.Delay.Median()*1000)
	}
}
