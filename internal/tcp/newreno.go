// Package tcp implements window-dynamics models of the legacy TCP congestion
// controllers the Verus paper compares against: NewReno (RFC 6582 behaviour,
// the paper's "Windows 7" baseline), Cubic (Ha/Rhee/Xu, the "Linux 3.16"
// baseline), and Vegas (Brakmo/O'Malley/Peterson, the classic delay-based
// protocol Verus draws inspiration from).
//
// Each controller implements cc.Controller, so it runs on the simulator's
// Source exactly as Verus does. Loss detection, RTT sampling, and
// retransmission timeouts are host (Source/transport) duties; these types
// model only window evolution.
package tcp

import (
	"math"
	"time"

	"repro/internal/cc"
)

// NewReno is TCP NewReno's AIMD window dynamics: slow start to ssthresh,
// additive increase of one packet per RTT, halving on loss with
// one-reduction-per-window fast recovery, and a collapse to one packet on
// timeout.
type NewReno struct{ window }

var _ cc.Controller = (*NewReno)(nil)

// NewNewReno returns a NewReno controller with initial window 2: element 0
// of a NewNewRenos slab of one.
func NewNewReno() *NewReno { return &NewNewRenos(1)[0] }

// NewNewRenos returns n NewReno controllers with initial window 2 in one
// slice.
func NewNewRenos(n int) []NewReno {
	rs := make([]NewReno, n)
	for i := range rs {
		rs[i].window = newWindow()
	}
	return rs
}

// Name implements cc.Controller.
func (t *NewReno) Name() string { return "newreno" }

// OnAck implements cc.Controller.
func (t *NewReno) OnAck(now time.Duration, ack cc.AckSample) {
	if t.recovering(ack.Seq) {
		return // no growth while recovering
	}
	if t.cwnd < t.ssthresh {
		t.cwnd++
	} else {
		t.cwnd += 1 / t.cwnd
	}
}

// OnLoss implements cc.Controller.
func (t *NewReno) OnLoss(now time.Duration, loss cc.LossEvent) {
	if !t.enterRecovery() {
		return
	}
	t.ssthresh = math.Max(2, t.cwnd/2)
	t.cwnd = t.ssthresh
}

// OnTimeout implements cc.Controller.
func (t *NewReno) OnTimeout(now time.Duration) {
	t.ssthresh = math.Max(2, t.cwnd/2)
	t.cwnd = 1
	t.inRecovery = false
}
