package tcp

import "repro/internal/snap"

// Checkpoint support (DESIGN.md §Checkpoint): each controller's walk visits exactly
// its mutable fields, the shared window's among them, in a fixed order that
// checkpoint files depend on. Parameters are compile-time constants here, so
// there is nothing to cross-check against the rebuild.

// Walk implements snap.Walkable.
func (t *NewReno) Walk(w snap.Walker) {
	w.Tag("newreno")
	w.F64(&t.cwnd)
	w.F64(&t.ssthresh)
	w.I64(&t.lastSent)
	w.I64(&t.recoverSeq)
	w.Bool(&t.inRecovery)
}

// Walk implements snap.Walkable.
func (t *Cubic) Walk(w snap.Walker) {
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

// Walk implements snap.Walkable.
func (t *Vegas) Walk(w snap.Walker) {
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
