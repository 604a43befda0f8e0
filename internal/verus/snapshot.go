package verus

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/snap"
)

// Checkpoint support (DESIGN.md §Checkpoint). The controller's walk visits every
// mutable field of the state machine plus the delay profile; configuration and
// the derived tick divisors are rebuilt. Infinities (the unprimed D_min, the
// unset ssthresh cap) round-trip bit-exactly through the F64 codec.

// walk visits the profile's knots and, when a curve is fitted, the exact
// (xs, ys) inputs of the last successful refit. The knots go on the wire as
// three counted lists — windows, delays, stamps — and the inputs as two
// more, read off the spline's own knot rows, which hold exactly what the
// last refit fitted. The spline itself is not serialized: a load re-runs
// RefitSorted on those inputs, which is deterministic, so the restored curve
// is bit-identical. Re-fitting from the *current* knots instead would be
// wrong — knots updated since the last refit (dirty profile) would produce a
// curve the live run does not have yet.
func (p *delayProfile) walk(w snap.Walker) {
	w.Tag("profile")
	var wins []int
	var delays []float64
	var stamps []int64
	if w.Loading() {
		w.Ints(&wins)
		w.F64s(&delays)
		w.I64s(&stamps)
	} else {
		p.saveKnots(w)
	}
	w.Int(&p.maxW)
	w.Bool(&p.dirty)
	fitted := p.splReady
	w.Bool(&fitted)
	if w.Loading() {
		p.splReady = false
		if w.Err() == nil && (len(wins) != len(delays) || len(wins) != len(stamps)) {
			w.Fail(fmt.Errorf("verus: profile snapshot has %d windows, %d delays, %d stamps", len(wins), len(delays), len(stamps)))
		}
		if w.Err() == nil {
			p.zipKnots(wins, delays, stamps)
		}
	}
	if !fitted || w.Err() != nil {
		return
	}
	var xs, ys []float64
	if !w.Loading() {
		xs, ys = p.spl.Knots()
	}
	w.F64s(&xs)
	w.F64s(&ys)
	if !w.Loading() || w.Err() != nil {
		return
	}
	p.spl.Reserve(p.firstRows[:])
	if err := p.spl.RefitSorted(xs, ys); err != nil {
		w.Fail(fmt.Errorf("verus: re-interpolating checkpointed profile: %w", err))
		return
	}
	p.splReady = true
}

// saveKnots writes the knots as three counted lists, each laid out as
// Walker.Ints, F64s and I64s lay out a slice.
func (p *delayProfile) saveKnots(w snap.Walker) {
	w.Len(len(p.knots))
	for i := range p.knots {
		w.Int(&p.knots[i].w)
	}
	w.Len(len(p.knots))
	for i := range p.knots {
		w.F64(&p.knots[i].d)
	}
	w.Len(len(p.knots))
	for i := range p.knots {
		w.I64(&p.knots[i].stamp)
	}
}

// zipKnots replaces the knots with the decoded lists, which are of one
// length. The slice starts on the profile's own storage, as a first
// update's does.
func (p *delayProfile) zipKnots(wins []int, delays []float64, stamps []int64) {
	if p.knots == nil {
		p.knots = p.first[:0]
	}
	p.knots = p.knots[:0]
	for i, win := range wins {
		p.knots = append(p.knots, knot{w: win, d: delays[i], stamp: stamps[i]})
	}
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
