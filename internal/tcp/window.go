package tcp

import "time"

// window is the state and plumbing the three models share: the congestion
// window, ssthresh, the highest sequence sent and NewReno-style fast
// recovery (one reduction per window, ended by an ack at or past the
// sequence that was highest when the loss was seen). It supplies the
// ack-clocked half of cc.Controller; each model adds its growth, loss and
// timeout rules.
type window struct {
	cwnd     float64
	ssthresh float64

	lastSent   int64 // highest sequence transmitted
	recoverSeq int64 // recovery ends when this sequence is acked
	inRecovery bool
}

// newWindow returns the initial state: a window of 2 and no ssthresh.
func newWindow() window {
	return window{cwnd: 2, ssthresh: 1 << 30, recoverSeq: -1}
}

// TickInterval implements cc.Controller (ack-clocked).
func (w *window) TickInterval() time.Duration { return 0 }

// Tick implements cc.Controller.
func (w *window) Tick(time.Duration) {}

// Allowance implements cc.Controller.
func (w *window) Allowance(_ time.Duration, inflight int) int {
	return int(w.cwnd) - inflight
}

// SendTag implements cc.Controller.
func (w *window) SendTag() int { return int(w.cwnd) }

// OnSend implements cc.Controller.
func (w *window) OnSend(_ time.Duration, seq int64, _ int) {
	if seq > w.lastSent {
		w.lastSent = seq
	}
}

// recovering reports whether an ack of seq arrives during fast recovery,
// ending the recovery first if seq reaches recoverSeq.
func (w *window) recovering(seq int64) bool {
	if w.inRecovery && seq >= w.recoverSeq {
		w.inRecovery = false
	}
	return w.inRecovery
}

// enterRecovery starts fast recovery and reports whether the caller should
// reduce the window: false if a reduction already happened in this window.
func (w *window) enterRecovery() bool {
	if w.inRecovery {
		return false
	}
	w.inRecovery = true
	w.recoverSeq = w.lastSent
	return true
}
