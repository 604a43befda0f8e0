package verus

import (
	"math"

	"repro/internal/spline"
)

// delayProfile tracks the relationship between sending window and observed
// packet delay — the paper's central data structure (§4 "Delay Profiler",
// Fig. 5). Each acknowledgement updates the point for the window the packet
// was sent under (EWMA, §5.1); the curve is re-interpolated with a cubic
// spline at fixed intervals because interpolation after every ack would be
// too expensive (§5.1).
//
// Points that have not been refreshed for staleAfter epochs are dropped at
// refit time: only visited windows ever receive updates, so after a channel
// change the unvisited region of the curve is pure history. Left in place,
// a wall of stale high-delay knots blocks the window from ever growing into
// a newly fast channel; dropping them hands that region back to the spline's
// extrapolation, which is the mechanism Verus uses to explore anyway.
//
// The knot store is one slice of knots sorted by window, not a map: update
// is a binary search plus an in-place EWMA fold (allocation-free in steady
// state, when the window has been seen before), stale aging is a single
// compaction pass, and refit writes the knots in order straight into the
// spline's own knot rows, with no sort and no scratch copy. The first eight
// knots live in the profile itself, so a young profile allocates nothing;
// past them the slice grows by append. The spline's knot rows are then the
// record of the last fit, which a checkpoint saves (snapshot.go).
// Sorted order also makes determinism structural: there is no map iteration
// anywhere, so no randomized-order hazard to defend against.
//
// The knot slice points into the profile from its first knot on, and the
// spline's backing from its first fit on, so a profile must not be copied
// after its first update; a Verus holds its profile by value and never moves
// (NewN builds each one in place).
type delayProfile struct {
	knots []knot // sorted by w ascending; w distinct

	maxW       int
	spl        spline.Spline // refitted in place; valid once splReady
	splReady   bool
	dirty      bool
	staleAfter int64 // epochs; 0 disables aging

	first [firstKnots]knot // the first knots' storage
	// firstRows backs the spline's seven rows per knot while it fits at most
	// firstKnots knots (spline.Reserve); past that the spline's backing
	// doubles onto the heap. Like first, it pins the profile in place.
	firstRows [7 * firstKnots]float64
}

// firstKnots is how many knots, and how many knots' spline rows, a profile
// holds in itself.
const firstKnots = 8

// knot is one point of the profile: the EWMA delay observed at window w and
// the epoch of its last update.
type knot struct {
	w     int
	d     float64
	stamp int64
}

// numPoints returns the current knot count.
func (p *delayProfile) numPoints() int { return len(p.knots) }

// reset discards every knot and the fitted curve, returning the profile to
// its just-constructed state (§4.2 recovery: after a blackout the learned
// window→delay relationship describes a bearer that no longer exists, so
// re-learning from scratch beats trusting stale knots). The knot storage and
// the spline's rows are kept, so the rebuild does not re-allocate.
func (p *delayProfile) reset() {
	p.knots = p.knots[:0]
	p.maxW = 0
	p.splReady = false
	p.dirty = false
}

// update folds a (window, delay) observation into the profile at epoch now.
// The common case — an ack for an already-visited window — is a binary
// search and two stores; a first visit inserts a knot, shifting the tail.
func (p *delayProfile) update(w int, delay float64, now int64) {
	if w < 1 || delay <= 0 {
		return
	}
	lo, hi := 0, len(p.knots)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if p.knots[m].w < w {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(p.knots) && p.knots[lo].w == w {
		k := &p.knots[lo]
		k.d = alphaProfile*k.d + (1-alphaProfile)*delay
		k.stamp = now
	} else {
		p.insert(lo, knot{w: w, d: delay, stamp: now})
	}
	if w > p.maxW {
		p.maxW = w
	}
	p.dirty = true
}

// insert puts k at index i, shifting the tail; the first insert moves the
// slice onto the profile's own storage.
func (p *delayProfile) insert(i int, k knot) {
	if p.knots == nil {
		p.knots = p.first[:0]
	}
	p.knots = append(p.knots, knot{})
	copy(p.knots[i+1:], p.knots[i:])
	p.knots[i] = k
}

// refit ages out stale points and re-interpolates the spline. It is a no-op
// while fewer than two points exist or nothing changed. With warm buffers
// (knot count at or below its high-water mark) it performs no allocation.
func (p *delayProfile) refit(now int64) {
	if p.staleAfter > 0 && len(p.knots) > 2 {
		// Compact stale knots in ascending window order, but never below two
		// survivors: the floor is checked before each drop, so when only two
		// knots remain every later knot is kept — the same semantics as the
		// pre-compaction implementation, which deleted from a sorted stale
		// list and stopped at the floor.
		n := len(p.knots)
		kept, removed := 0, 0
		for i := 0; i < n; i++ {
			if now-p.knots[i].stamp > p.staleAfter && n-removed > 2 {
				removed++
				continue
			}
			p.knots[kept] = p.knots[i]
			kept++
		}
		if removed > 0 {
			p.knots = p.knots[:kept]
			p.dirty = true
		}
		p.maxW = 0
		if len(p.knots) > 0 {
			p.maxW = p.knots[len(p.knots)-1].w
		}
	}
	if !p.dirty || len(p.knots) < 2 {
		return
	}
	p.spl.Reserve(p.firstRows[:])
	err := p.spl.RefitRows(len(p.knots), func(xs, ys []float64) {
		for i, k := range p.knots {
			xs[i], ys[i] = float64(k.w), k.d
		}
	})
	p.splReady = err == nil
	p.dirty = false
}

// ready reports whether the profile has an interpolated curve to query.
func (p *delayProfile) ready() bool { return p.splReady }

// lookup returns the largest window whose interpolated delay does not exceed
// target, searching up to hi (which may extend past the observed range; the
// spline extrapolates linearly there, which is how Verus explores windows it
// has not yet tried). When no window satisfies the target — the target sits
// at or below the historical minimum delay, which Eq. 4's floor regularly
// produces — it reports found=false and returns the window with the lowest
// predicted delay instead of collapsing to one packet. Callers should treat
// a not-found result as "do not grow".
//
// The candidates are the grid x = 1 + k*step, k = 0..steps-1, with
// steps = clamp(2*floor(hi), 64, 4096). Only the largest hit is wanted, so the
// scan runs from k = steps-1 downward and stops at the first point within the
// target; in steady state the answer sits a few points below hi. The spline
// cursor steps left as x falls, so even a scan that finds nothing costs
// O(knots + steps), each point bit-identical to point-wise Eval.
func (p *delayProfile) lookup(target, hi float64) (w float64, found bool) {
	w, found, _ = p.scan(target, hi)
	return w, found
}

// scan is lookup, also reporting how many grid points it evaluated.
func (p *delayProfile) scan(target, hi float64) (w float64, found bool, evals int) {
	if !p.splReady {
		return 1, false, 0
	}
	if hi < 1 {
		hi = 1
	}
	steps := int(hi) * 2
	if steps < 64 {
		steps = 64
	}
	if steps > 4096 {
		steps = 4096
	}
	argmin := 1.0
	minDelay := math.Inf(1)
	// The argmin fallback must stay within the observed knot range: beyond
	// maxW the curve is extrapolation, and a slightly negative slope there
	// would otherwise make "the least-delay window" an arbitrarily large
	// unexplored one.
	argminCeil := float64(p.maxW)
	if argminCeil < 1 {
		argminCeil = 1
	}
	// Beyond the observed range the curve is linear extrapolation; clamp it
	// from below at the last observed delay. A noisy negative tail slope
	// must not promise that huge unexplored windows delay *less* than
	// anything ever measured — that false promise compounds into a window
	// runaway.
	dAtMaxW := p.spl.Eval(argminCeil)
	step := (hi - 1) / float64(steps-1)
	ev := p.spl.Evaluator()
	k := steps - 1
	// Two loops, not one with both tests in it: x falls with k, so the points
	// above the observed range — the clamped tail, never argmin candidates —
	// come first, and a scan that finds nothing runs as fast as the forward
	// pass over a precomputed grid did.
	for ; k >= 0; k-- {
		x := 1 + float64(k)*step
		if x <= argminCeil {
			break
		}
		ev.Seek(x)
		d := ev.At(x)
		if d < dAtMaxW {
			d = dAtMaxW
		}
		if d <= target {
			return x, true, steps - k
		}
	}
	for ; k >= 0; k-- {
		x := 1 + float64(k)*step
		ev.Seek(x)
		d := ev.At(x)
		if d <= target {
			return x, true, steps - k
		}
		// <=, not <: walking down, a tie must still end on the smallest
		// window.
		if d <= minDelay {
			minDelay = d
			argmin = x
		}
	}
	return argmin, false, steps
}

// delayAt evaluates the interpolated curve at window w (clamped at >= 1).
// Returns 0 when no curve exists yet.
func (p *delayProfile) delayAt(w float64) float64 {
	if !p.splReady {
		return 0
	}
	if w < 1 {
		w = 1
	}
	return p.spl.Eval(w)
}

// snapshotPoints returns a copy of the profile's raw points sorted by window.
func (p *delayProfile) snapshotPoints() (windows []int, delays []float64) {
	if len(p.knots) == 0 {
		return nil, nil
	}
	windows = make([]int, len(p.knots))
	delays = make([]float64, len(p.knots))
	for i, k := range p.knots {
		windows[i], delays[i] = k.w, k.d
	}
	return windows, delays
}
