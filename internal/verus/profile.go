package verus

import (
	"math"
	"sort"

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
// The knot store is three parallel slices sorted by window (wins ascending,
// delays/stamps aligned), not a map: update is a binary search plus an
// in-place EWMA fold (allocation-free in steady state, when the window has
// been seen before), stale aging is a single compaction pass, and refit
// reads the knots off in order with no sort and no per-refit allocation —
// the xs/ys scratch and the spline's own buffers are reused across refits.
// Sorted order also makes determinism structural: there is no map iteration
// anywhere, so no randomized-order hazard to defend against.
type delayProfile struct {
	// Parallel knot arrays, sorted by wins ascending. wins are distinct.
	wins   []int
	delays []float64
	stamps []int64 // epoch counter of each knot's last update

	maxW       int
	spl        spline.Spline // refitted in place; valid once splReady
	splReady   bool
	dirty      bool
	staleAfter int64 // epochs; 0 disables aging

	// Refit scratch, reused across refits.
	xs, ys []float64
}

// numPoints returns the current knot count.
func (p *delayProfile) numPoints() int { return len(p.wins) }

// reset discards every knot and the fitted curve, returning the profile to
// its just-constructed state (§4.2 recovery: after a blackout the learned
// window→delay relationship describes a bearer that no longer exists, so
// re-learning from scratch beats trusting stale knots). Scratch buffers are
// kept so the rebuild does not re-allocate.
func (p *delayProfile) reset() {
	p.wins = p.wins[:0]
	p.delays = p.delays[:0]
	p.stamps = p.stamps[:0]
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
	i := sort.SearchInts(p.wins, w)
	if i < len(p.wins) && p.wins[i] == w {
		p.delays[i] = alphaProfile*p.delays[i] + (1-alphaProfile)*delay
		p.stamps[i] = now
	} else {
		p.wins = append(p.wins, 0)
		copy(p.wins[i+1:], p.wins[i:])
		p.wins[i] = w
		p.delays = append(p.delays, 0)
		copy(p.delays[i+1:], p.delays[i:])
		p.delays[i] = delay
		p.stamps = append(p.stamps, 0)
		copy(p.stamps[i+1:], p.stamps[i:])
		p.stamps[i] = now
	}
	if w > p.maxW {
		p.maxW = w
	}
	p.dirty = true
}

// refit ages out stale points and re-interpolates the spline. It is a no-op
// while fewer than two points exist or nothing changed. With warm buffers
// (knot count at or below its high-water mark) it performs no allocation.
func (p *delayProfile) refit(now int64) {
	if p.staleAfter > 0 && len(p.wins) > 2 {
		// Compact stale knots in ascending window order, but never below two
		// survivors: the floor is checked before each drop, so when only two
		// knots remain every later knot is kept — the same semantics as the
		// pre-compaction implementation, which deleted from a sorted stale
		// list and stopped at the floor.
		n := len(p.wins)
		kept, removed := 0, 0
		for i := 0; i < n; i++ {
			if now-p.stamps[i] > p.staleAfter && n-removed > 2 {
				removed++
				continue
			}
			p.wins[kept] = p.wins[i]
			p.delays[kept] = p.delays[i]
			p.stamps[kept] = p.stamps[i]
			kept++
		}
		if removed > 0 {
			p.wins = p.wins[:kept]
			p.delays = p.delays[:kept]
			p.stamps = p.stamps[:kept]
			p.dirty = true
		}
		p.maxW = 0
		if len(p.wins) > 0 {
			p.maxW = p.wins[len(p.wins)-1]
		}
	}
	if !p.dirty || len(p.wins) < 2 {
		return
	}
	p.xs = p.xs[:0]
	p.ys = p.ys[:0]
	for i, w := range p.wins {
		p.xs = append(p.xs, float64(w))
		p.ys = append(p.ys, p.delays[i])
	}
	if err := p.spl.RefitSorted(p.xs, p.ys); err == nil {
		p.splReady = true
	}
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
	windows = append([]int(nil), p.wins...)
	delays = append([]float64(nil), p.delays...)
	return windows, delays
}
