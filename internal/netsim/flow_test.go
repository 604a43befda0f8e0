package netsim

import (
	"math"
	"testing"
	"time"

	"repro/internal/cc"
)

// fixedWindow is a minimal window-based controller for exercising the host
// machinery.
type fixedWindow struct {
	w        int
	acks     int
	losses   []cc.LossEvent
	timeouts int
	lastRTT  time.Duration
	tick     time.Duration
	ticks    int
}

func (f *fixedWindow) Name() string { return "fixed" }
func (f *fixedWindow) OnAck(_ time.Duration, a cc.AckSample) {
	f.acks++
	f.lastRTT = a.RTT
}
func (f *fixedWindow) OnLoss(_ time.Duration, l cc.LossEvent) { f.losses = append(f.losses, l) }
func (f *fixedWindow) OnTimeout(time.Duration)                { f.timeouts++ }
func (f *fixedWindow) TickInterval() time.Duration            { return f.tick }
func (f *fixedWindow) Tick(time.Duration)                     { f.ticks++ }
func (f *fixedWindow) Allowance(_ time.Duration, inflight int) int {
	return f.w - inflight
}
func (f *fixedWindow) SendTag() int                     { return f.w }
func (f *fixedWindow) OnSend(time.Duration, int64, int) {}

func newTestDumbbell(ctrl cc.Controller, rateMbps float64, queueBytes int) *Dumbbell {
	sim := NewSim()
	return NewDumbbell(sim, func(dst Receiver) Link {
		return NewFixedLink(sim, NewDropTail(queueBytes), rateMbps, 5*time.Millisecond, dst, 1)
	}, 1000, []FlowSpec{{Ctrl: ctrl, AckDelay: 5 * time.Millisecond}})
}

func TestSourceRespectsWindow(t *testing.T) {
	ctrl := &fixedWindow{w: 4}
	d := newTestDumbbell(ctrl, 8, 1_000_000)
	d.Run(5 * time.Second)
	m := d.Metrics[0]
	if m.Sent == 0 || m.Received == 0 {
		t.Fatal("no traffic")
	}
	// Window 4, RTT ≈ 10 ms + queueing: throughput is window-limited well
	// below the 8 Mbps link: 4 pkts of 1000 B per ~11 ms ≈ 2.9 Mbps.
	got := m.MeanMbps(5 * time.Second)
	if got > 4 || got < 1 {
		t.Fatalf("window-limited throughput = %v Mbps, want ~3", got)
	}
	if ctrl.acks == 0 {
		t.Fatal("controller saw no acks")
	}
	if ctrl.lastRTT < 10*time.Millisecond {
		t.Fatalf("RTT %v below base RTT", ctrl.lastRTT)
	}
}

func TestSourceMeasuresQueueingDelay(t *testing.T) {
	// A big window on a slow link builds a standing queue; one-way delay
	// must reflect it.
	ctrl := &fixedWindow{w: 100}
	d := newTestDumbbell(ctrl, 1, 1_000_000)
	d.Run(10 * time.Second)
	m := d.Metrics[0]
	// 100 packets × 8000 bits at 1 Mbps = 800 ms of queue.
	if m.Delay.Mean() < 0.2 {
		t.Fatalf("mean one-way delay %v s; standing queue not visible", m.Delay.Mean())
	}
}

func TestSourceDetectsLossViaDupAcks(t *testing.T) {
	ctrl := &fixedWindow{w: 16}
	sim := NewSim()
	var link *FixedLink
	d := NewDumbbell(sim, func(dst Receiver) Link {
		link = NewFixedLink(sim, NewDropTail(1_000_000), 10, 2*time.Millisecond, dst, 7)
		return link
	}, 1000, []FlowSpec{{Ctrl: ctrl, AckDelay: 2 * time.Millisecond}})
	sim.Schedule(time.Second, func() { link.SetLossProb(0.05) })
	d.Run(10 * time.Second)
	if len(ctrl.losses) == 0 {
		t.Fatal("no losses detected despite 5% drop rate")
	}
	for _, l := range ctrl.losses {
		if l.SentWindow != 16 {
			t.Fatalf("loss event window tag = %d, want 16", l.SentWindow)
		}
	}
	if d.Metrics[0].LossDetected != int64(len(ctrl.losses)) {
		t.Fatal("metrics and controller disagree on loss count")
	}
}

func TestSourceRTOOnBlackout(t *testing.T) {
	ctrl := &fixedWindow{w: 8}
	sim := NewSim()
	var link *FixedLink
	d := NewDumbbell(sim, func(dst Receiver) Link {
		link = NewFixedLink(sim, NewDropTail(1_000_000), 10, 2*time.Millisecond, dst, 7)
		return link
	}, 1000, []FlowSpec{{Ctrl: ctrl, AckDelay: 2 * time.Millisecond}})
	// Total blackout after 1 s.
	sim.Schedule(time.Second, func() { link.SetLossProb(1.0) })
	d.Run(4 * time.Second)
	if ctrl.timeouts == 0 {
		t.Fatal("no RTO during blackout")
	}
	if d.Metrics[0].Timeouts == 0 {
		t.Fatal("metrics missed the timeout")
	}
}

func TestSourceTicksController(t *testing.T) {
	ctrl := &fixedWindow{w: 2, tick: 5 * time.Millisecond}
	d := newTestDumbbell(ctrl, 8, 1_000_000)
	d.Run(time.Second)
	// ~200 ticks in 1 s.
	if ctrl.ticks < 150 || ctrl.ticks > 210 {
		t.Fatalf("ticks = %d, want ~200", ctrl.ticks)
	}
}

func TestSourceStartStop(t *testing.T) {
	ctrl := &fixedWindow{w: 4}
	sim := NewSim()
	d := NewDumbbell(sim, func(dst Receiver) Link {
		return NewFixedLink(sim, NewDropTail(1_000_000), 8, time.Millisecond, dst, 1)
	}, 1000, []FlowSpec{{
		Ctrl: ctrl, AckDelay: time.Millisecond,
		Start: time.Second, Stop: 2 * time.Second,
	}})
	d.Run(3 * time.Second)
	m := d.Metrics[0]
	if m.Sent == 0 {
		t.Fatal("flow never started")
	}
	mbps := m.Throughput.Mbps()
	if len(mbps) == 0 || mbps[0] != 0 {
		t.Fatalf("traffic before start: %v", mbps)
	}
	// Nothing delivered after stop (+1 window slack).
	if n := len(m.Throughput.Mbps()); n > 3 {
		t.Fatalf("traffic long after stop: %d windows", n)
	}
}

func TestCBRRate(t *testing.T) {
	sim := NewSim()
	d := NewDumbbell(sim, func(dst Receiver) Link {
		return NewFixedLink(sim, NewDropTail(10_000_000), 100, time.Millisecond, dst, 1)
	}, 1250, []FlowSpec{{CBRMbps: 10}})
	d.Run(10 * time.Second)
	got := d.Metrics[0].MeanMbps(10 * time.Second)
	if math.Abs(got-10) > 0.5 {
		t.Fatalf("CBR delivered %v Mbps, want 10", got)
	}
}

func TestCBROnOff(t *testing.T) {
	sim := NewSim()
	d := NewDumbbell(sim, func(dst Receiver) Link {
		return NewFixedLink(sim, NewDropTail(10_000_000), 100, time.Millisecond, dst, 1)
	}, 1250, []FlowSpec{{
		CBRMbps: 10,
		OnFor:   time.Second, OffFor: time.Second,
	}})
	d.Run(4 * time.Second)
	mbps := d.Metrics[0].Throughput.Mbps()
	if len(mbps) < 4 {
		t.Fatalf("windows = %d", len(mbps))
	}
	if mbps[0] < 8 || mbps[2] < 8 {
		t.Fatalf("ON windows too slow: %v", mbps)
	}
	if mbps[1] > 1 || mbps[3] > 1 {
		t.Fatalf("OFF windows not silent: %v", mbps)
	}
}

func TestCBRValidation(t *testing.T) {
	sim := NewSim()
	link := NewFixedLink(sim, NewDropTail(1000), 1, 0, ReceiverFunc(func(*Packet) {}), 1)
	for _, f := range []func(){
		func() { NewCBR(sim, 0, link, 1000, 0, 0, 0, 0, 0) },
		func() { NewCBR(sim, 0, link, 0, 1, 0, 0, 0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid CBR accepted")
				}
			}()
			f()
		}()
	}
}

func TestDispatcherRouting(t *testing.T) {
	d := NewDispatcher()
	var got []int
	d.Register(1, ReceiverFunc(func(p *Packet) { got = append(got, 1) }))
	d.Register(2, ReceiverFunc(func(p *Packet) { got = append(got, 2) }))
	d.Receive(pkt(2, 0, 100))
	d.Receive(pkt(1, 0, 100))
	d.Receive(pkt(99, 0, 100)) // unknown: dropped silently
	if len(got) != 2 || got[0] != 2 || got[1] != 1 {
		t.Fatalf("routing = %v", got)
	}
}

func TestDumbbellSharedBottleneckFairness(t *testing.T) {
	// Two identical fixed-window flows share a link: long-run throughputs
	// should be close.
	sim := NewSim()
	specs := []FlowSpec{
		{Ctrl: &fixedWindow{w: 10}, AckDelay: 2 * time.Millisecond},
		{Ctrl: &fixedWindow{w: 10}, AckDelay: 2 * time.Millisecond},
	}
	d := NewDumbbell(sim, func(dst Receiver) Link {
		return NewFixedLink(sim, NewDropTail(50_000), 5, 2*time.Millisecond, dst, 1)
	}, 1000, specs)
	d.Run(20 * time.Second)
	a := d.Metrics[0].MeanMbps(20 * time.Second)
	b := d.Metrics[1].MeanMbps(20 * time.Second)
	if a == 0 || b == 0 {
		t.Fatal("a flow starved completely")
	}
	ratio := a / b
	if ratio < 0.7 || ratio > 1.4 {
		t.Fatalf("unfair split: %v vs %v Mbps", a, b)
	}
}
