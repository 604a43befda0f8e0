package tcp

import (
	"fmt"
	"math"

	"repro/internal/snap"
)

// Checkpoint support (DESIGN.md §Checkpoint): each controller's walk visits exactly
// its mutable fields, the shared window's among them, in a fixed order that
// checkpoint files depend on. Parameters are compile-time constants here, so
// there is nothing to cross-check against the rebuild. A load fails closed:
// it is walked into a copy of the controller, checked for state no run can
// reach, and committed only if it passes, so a rejected snapshot leaves the
// controller as it was.

// Walk implements snap.Walkable.
func (t *NewReno) Walk(w snap.Walker) { walkChecked(w, t, (*NewReno).walk, (*NewReno).reachable) }

// Walk implements snap.Walkable.
func (t *Cubic) Walk(w snap.Walker) { walkChecked(w, t, (*Cubic).walk, (*Cubic).reachable) }

// Walk implements snap.Walkable.
func (t *Vegas) Walk(w snap.Walker) { walkChecked(w, t, (*Vegas).walk, (*Vegas).reachable) }

// walkChecked saves *t with walk, or loads into a copy of *t with walk and
// commits the copy only if check passes.
func walkChecked[T any](w snap.Walker, t *T, walk func(*T, snap.Walker), check func(*T) error) {
	if !w.Loading() {
		walk(t, w)
		return
	}
	tmp := *t
	walk(&tmp, w)
	if w.Err() != nil {
		return
	}
	if err := check(&tmp); err != nil {
		w.Fail(err)
		return
	}
	*t = tmp
}

func (t *NewReno) walk(w snap.Walker) {
	w.Tag("newreno")
	w.F64(&t.cwnd)
	w.F64(&t.ssthresh)
	w.I64(&t.lastSent)
	w.I64(&t.recoverSeq)
	w.Bool(&t.inRecovery)
}

func (t *Cubic) walk(w snap.Walker) {
	w.Tag("cubic")
	w.F64(&t.cwnd)
	w.F64(&t.ssthresh)
	w.F64(&t.wMax)
	w.F64(&t.k)
	w.Dur(&t.epochStart)
	w.Bool(&t.haveEpoch)
	w.Dur(&t.srtt)
	w.I64(&t.lastSent)
	w.I64(&t.recoverSeq)
	w.Bool(&t.inRecovery)
}

func (t *Vegas) walk(w snap.Walker) {
	w.Tag("vegas")
	w.F64(&t.cwnd)
	w.F64(&t.ssthresh)
	w.Dur(&t.baseRTT)
	w.Dur(&t.rttSum)
	w.Int(&t.rttCnt)
	w.I64(&t.nextAdj)
	w.I64(&t.lastSent)
	w.I64(&t.recoverSeq)
	w.Bool(&t.inRecovery)
	w.Bool(&t.slowStart)
	w.Bool(&t.ssToggle)
}

// reachable reports why no run of a model could hold the window state w
// does, or nil. The window starts at 2 and falls to at least minCwnd: NewReno
// and Cubic collapse to 1 on a timeout, Vegas to 2, and every other decrease
// is max(2, …). ssthresh starts at 2³⁰ and is only ever set to max(2, …) or
// to such a window; the highest sequence sent starts at 0 and only rises, and
// recovery ends at a sequence that was once the highest, or at −1 before any.
func (w *window) reachable(model string, minCwnd float64) error {
	switch {
	case !(w.cwnd >= minCwnd) || math.IsInf(w.cwnd, 1):
		return fmt.Errorf("tcp: %s snapshot cwnd %v is not a finite window of at least %v", model, w.cwnd, minCwnd)
	case !(w.ssthresh >= 2) || math.IsInf(w.ssthresh, 1):
		return fmt.Errorf("tcp: %s snapshot ssthresh %v is not finite and at least 2", model, w.ssthresh)
	case w.lastSent < 0:
		return fmt.Errorf("tcp: %s snapshot lastSent %d is negative", model, w.lastSent)
	case w.recoverSeq < -1:
		return fmt.Errorf("tcp: %s snapshot recoverSeq %d is below -1", model, w.recoverSeq)
	}
	return nil
}

func (t *NewReno) reachable() error { return t.window.reachable("newreno", 1) }

// reachable also requires Cubic's curve anchor wMax, a window or 0, and its
// time to reach it, k, a cube root of a multiple of wMax, to be finite and
// nonnegative.
func (t *Cubic) reachable() error {
	if err := t.window.reachable("cubic", 1); err != nil {
		return err
	}
	switch {
	case !(t.wMax >= 0) || math.IsInf(t.wMax, 1):
		return fmt.Errorf("tcp: cubic snapshot wMax %v is not finite and nonnegative", t.wMax)
	case !(t.k >= 0) || math.IsInf(t.k, 1):
		return fmt.Errorf("tcp: cubic snapshot k %v is not finite and nonnegative", t.k)
	case t.epochStart < 0 || t.srtt < 0:
		return fmt.Errorf("tcp: cubic snapshot durations epochStart %v, srtt %v; neither may be negative", t.epochStart, t.srtt)
	}
	return nil
}

// reachable also requires Vegas's RTT sum to be over a nonnegative count of
// samples, and to be 0 over none.
func (t *Vegas) reachable() error {
	if err := t.window.reachable("vegas", 2); err != nil {
		return err
	}
	switch {
	case t.rttCnt < 0:
		return fmt.Errorf("tcp: vegas snapshot rttCnt %d is negative", t.rttCnt)
	case t.baseRTT < 0 || t.rttSum < 0:
		return fmt.Errorf("tcp: vegas snapshot durations baseRTT %v, rttSum %v; neither may be negative", t.baseRTT, t.rttSum)
	case t.rttCnt == 0 && t.rttSum != 0:
		return fmt.Errorf("tcp: vegas snapshot sums %v of RTT over no samples", t.rttSum)
	}
	return nil
}
