package verus

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/snap"
)

// Checkpoint support (DESIGN.md §10). The controller's walk visits every
// mutable field of the state machine plus the delay profile; configuration and
// the derived tick divisors are rebuilt. Infinities (the unprimed D_min, the
// unset ssthresh cap) round-trip bit-exactly through the F64 codec.

// walk visits the profile's knots and, when a curve is fitted, the exact
// (xs, ys) inputs of the last successful refit. The spline itself is not
// serialized: a load re-runs RefitSorted on those inputs, which is
// deterministic, so the restored curve is bit-identical. Re-fitting from the
// *current* knots instead would be wrong — knots updated since the last refit
// (dirty profile) would produce a curve the live run does not have yet.
func (p *delayProfile) walk(w snap.Walker) {
	w.Tag("profile")
	w.Ints(&p.wins)
	w.F64s(&p.delays)
	w.I64s(&p.stamps)
	w.Int(&p.maxW)
	w.Bool(&p.dirty)
	fitted := p.splReady
	w.Bool(&fitted)
	if w.Loading() {
		p.splReady = false
		if w.Err() == nil && (len(p.wins) != len(p.delays) || len(p.wins) != len(p.stamps)) {
			w.Fail(fmt.Errorf("verus: profile snapshot has %d windows, %d delays, %d stamps", len(p.wins), len(p.delays), len(p.stamps)))
		}
	}
	if !fitted || w.Err() != nil {
		return
	}
	w.F64s(&p.xs)
	w.F64s(&p.ys)
	if !w.Loading() || w.Err() != nil {
		return
	}
	if err := p.spl.RefitSorted(p.xs, p.ys); err != nil {
		w.Fail(fmt.Errorf("verus: re-interpolating checkpointed profile: %w", err))
		return
	}
	p.splReady = true
}

// walkCounter visits an observability counter's value; attachments (Observe)
// are re-made by the rebuild, only the count carries over.
func walkCounter(w snap.Walker, c *obs.Counter) {
	n := c.Value()
	w.I64(&n)
	if w.Loading() {
		c.Restore(n)
	}
}

// Walk implements snap.Walkable.
func (v *Verus) Walk(w snap.Walker) {
	w.Tag("verus")
	st := int(v.st)
	w.Int(&st)
	if st < int(stateSlowStart) || st > int(stateRecovery) {
		w.Fail(fmt.Errorf("verus: snapshot has unknown protocol state %d", st))
		return
	}
	v.st = state(st)
	v.profile.walk(w)
	w.F64(&v.epochMax)
	w.Bool(&v.haveSample)
	w.F64(&v.dMax)
	w.F64(&v.dMaxPrev)
	w.Bool(&v.dMaxPrimed)
	w.F64(&v.dMin)
	w.F64(&v.dEst)
	w.F64(&v.dMinBuckets[0])
	w.F64(&v.dMinBuckets[1])
	w.Int(&v.dMinTicks)
	w.F64(&v.w)
	w.F64(&v.quota)
	w.F64(&v.ssW)
	w.F64(&v.ssCap)
	w.Dur(&v.srtt)
	w.Int(&v.wLossExit)
	w.Int(&v.tickCount)
	w.F64(&v.wAtRefit)
	w.Int(&v.maxWAtRefit)
	w.Bool(&v.frozen)
	w.I64(&v.epochNow)
	w.Int(&v.consecTimeouts)
	w.Dur(&v.timeoutAt)
	w.Bool(&v.timeoutOpen)
	walkCounter(w, &v.epochs)
	walkCounter(w, &v.losses)
	walkCounter(w, &v.timeouts)
	walkCounter(w, &v.refits)
	walkCounter(w, &v.staleAcks)
	walkCounter(w, &v.relearns)
}
