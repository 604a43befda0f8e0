package tcp

import (
	"math"
	"time"

	"repro/internal/cc"
)

// Cubic parameters from Ha, Rhee, Xu, "CUBIC: A New TCP-Friendly High-Speed
// TCP Variant" and RFC 8312.
const (
	cubicC    = 0.4
	cubicBeta = 0.7
)

// Cubic is TCP Cubic's window dynamics: after a loss the window grows along
// a cubic curve anchored at the pre-loss maximum (concave approach, plateau,
// convex probe), with a TCP-friendly lower bound for low-BDP regimes.
type Cubic struct {
	window
	wMax       float64
	k          float64       // time to return to wMax, seconds
	epochStart time.Duration // when the current growth epoch began
	haveEpoch  bool
	srtt       time.Duration
}

var _ cc.Controller = (*Cubic)(nil)

// NewCubic returns a Cubic controller with initial window 2: element 0 of a
// NewCubics slab of one.
func NewCubic() *Cubic { return &NewCubics(1)[0] }

// NewCubics returns n Cubic controllers with initial window 2 in one slice.
func NewCubics(n int) []Cubic {
	cs := make([]Cubic, n)
	for i := range cs {
		cs[i].window = newWindow()
	}
	return cs
}

// Name implements cc.Controller.
func (t *Cubic) Name() string { return "cubic" }

// OnAck implements cc.Controller.
func (t *Cubic) OnAck(now time.Duration, ack cc.AckSample) {
	if t.srtt == 0 {
		t.srtt = ack.RTT
	} else {
		t.srtt = (7*t.srtt + ack.RTT) / 8
	}
	if t.recovering(ack.Seq) {
		return
	}
	if t.cwnd < t.ssthresh {
		t.cwnd++
		return
	}
	t.congestionAvoidance(now)
}

func (t *Cubic) congestionAvoidance(now time.Duration) {
	if !t.haveEpoch {
		// First congestion-avoidance ack of this epoch.
		t.haveEpoch = true
		t.epochStart = now
		if t.wMax < t.cwnd {
			t.wMax = t.cwnd
			t.k = 0
		} else {
			t.k = math.Cbrt(t.wMax * (1 - cubicBeta) / cubicC)
		}
	}
	et := (now - t.epochStart).Seconds()
	target := cubicC*math.Pow(et-t.k, 3) + t.wMax

	// TCP-friendly region (standard TCP's AIMD estimate over the same
	// epoch).
	rtt := t.srtt.Seconds()
	if rtt <= 0 {
		rtt = 0.1
	}
	wEst := t.wMax*cubicBeta + 3*(1-cubicBeta)/(1+cubicBeta)*et/rtt
	if target < wEst {
		target = wEst
	}
	if target > t.cwnd {
		// Spread the increase over the window's worth of acks.
		t.cwnd += (target - t.cwnd) / t.cwnd
	} else {
		t.cwnd += 0.01 / t.cwnd // minimal probing, per RFC 8312 §4.4 spirit
	}
}

// OnLoss implements cc.Controller.
func (t *Cubic) OnLoss(now time.Duration, loss cc.LossEvent) {
	if !t.enterRecovery() {
		return
	}
	t.wMax = t.cwnd
	t.cwnd = math.Max(2, t.cwnd*cubicBeta)
	t.ssthresh = t.cwnd
	t.haveEpoch = false
}

// OnTimeout implements cc.Controller.
func (t *Cubic) OnTimeout(now time.Duration) {
	t.wMax = t.cwnd
	t.ssthresh = math.Max(2, t.cwnd*cubicBeta)
	t.cwnd = 1
	t.haveEpoch = false
	t.inRecovery = false
}
