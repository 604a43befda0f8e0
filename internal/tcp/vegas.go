package tcp

import (
	"math"
	"time"

	"repro/internal/cc"
)

// Vegas parameters (packets of backlog) from Brakmo & Peterson.
const (
	vegasAlpha = 2
	vegasBeta  = 4
	vegasGamma = 1
)

// Vegas is TCP Vegas's delay-based window dynamics: it estimates the backlog
// it keeps in the bottleneck queue as
//
//	diff = cwnd × (RTT − baseRTT) / RTT
//
// and nudges the window to hold that backlog between α and β packets. It is
// the classic delay-based protocol from which Verus "draws inspiration"
// (paper §2) and one of the paper's real-world baselines (Fig. 8).
type Vegas struct {
	window
	baseRTT   time.Duration // minimum observed RTT
	rttSum    time.Duration
	rttCnt    int
	nextAdj   int64 // adjust once per RTT: when this seq is acked
	slowStart bool
	ssToggle  bool // Vegas doubles every *other* RTT during slow start
}

var _ cc.Controller = (*Vegas)(nil)

// NewVegas returns a Vegas controller with initial window 2: element 0 of a
// NewVegases slab of one.
func NewVegas() *Vegas { return &NewVegases(1)[0] }

// NewVegases returns n Vegas controllers with initial window 2, in slow
// start, in one slice.
func NewVegases(n int) []Vegas {
	vs := make([]Vegas, n)
	for i := range vs {
		vs[i].window, vs[i].slowStart = newWindow(), true
	}
	return vs
}

// Name implements cc.Controller.
func (t *Vegas) Name() string { return "vegas" }

// OnAck implements cc.Controller.
func (t *Vegas) OnAck(now time.Duration, ack cc.AckSample) {
	if t.baseRTT == 0 || ack.RTT < t.baseRTT {
		t.baseRTT = ack.RTT
	}
	t.rttSum += ack.RTT
	t.rttCnt++

	if t.recovering(ack.Seq) {
		return
	}
	// Once-per-RTT adjustment: wait until a packet sent after the previous
	// adjustment is acknowledged.
	if ack.Seq < t.nextAdj {
		return
	}
	t.nextAdj = t.lastSent + 1
	if t.rttCnt == 0 {
		return
	}
	avgRTT := t.rttSum / time.Duration(t.rttCnt)
	t.rttSum, t.rttCnt = 0, 0

	diff := t.cwnd * float64(avgRTT-t.baseRTT) / float64(avgRTT)
	if t.slowStart {
		if diff > vegasGamma || t.cwnd >= t.ssthresh {
			t.slowStart = false
			t.cwnd = math.Max(2, t.cwnd-1) // leave slow start one packet lighter, per Vegas
			return
		}
		// Double every other RTT.
		t.ssToggle = !t.ssToggle
		if t.ssToggle {
			t.cwnd *= 2
		}
		return
	}
	switch {
	case diff < vegasAlpha:
		t.cwnd++
	case diff > vegasBeta:
		t.cwnd = math.Max(2, t.cwnd-1)
	}
}

// OnLoss implements cc.Controller. Vegas retains Reno's halving on loss.
func (t *Vegas) OnLoss(now time.Duration, loss cc.LossEvent) {
	if !t.enterRecovery() {
		return
	}
	t.cwnd = math.Max(2, t.cwnd/2)
	t.ssthresh = t.cwnd
	t.slowStart = false
}

// OnTimeout implements cc.Controller.
func (t *Vegas) OnTimeout(now time.Duration) {
	t.ssthresh = math.Max(2, t.cwnd/2)
	t.cwnd = 2
	t.slowStart = true
	t.inRecovery = false
}
