// Package spline implements natural cubic spline interpolation, the
// substrate the Verus delay profile is built on. The paper's prototype used
// the ALGLIB library for the same purpose; this is a from-scratch
// implementation with identical semantics: interpolate a set of (x, y) knots
// with a C² piecewise cubic whose second derivative vanishes at the
// endpoints, and extrapolate linearly beyond the knot range.
//
// The representation is optimized for the delay profiler's access pattern —
// a top-down grid scan per 5 ms epoch, one refit per second: all per-segment
// cubic coefficients are precomputed at fit time, a cursor-style Evaluator
// steps the segment index incrementally across a monotone scan in either
// direction (O(n + steps) instead of O(steps·log n)), and RefitSorted
// rebuilds a spline in place with zero allocations once its one backing
// array is warm (RefitRows does the same through knot rows its caller
// fills, so the caller needs no copy of its own; Reserve lets the caller
// supply that first backing from storage of its own). Every coefficient is
// computed with the exact floating-point expressions the original per-call
// Eval used, so evaluation results are bit-identical to the naive
// formulation (the equivalence tests pin this).
package spline

import (
	"errors"
	"math"
	"sort"
)

// Spline is a natural cubic spline fitted to a set of knots. Construct with
// Fit, or refit an existing value in place with RefitSorted or RefitRows. A Spline is
// immutable between refits; it must not be refitted while another goroutine
// evaluates it.
type Spline struct {
	xs []float64
	ys []float64
	// second derivatives at the knots (natural boundary: m[0]=m[n-1]=0)
	m []float64

	// Precomputed per-segment cubic coefficients (len n-1). The value on
	// segment i at x is ys[i] + dx*(b[i] + dx*(c[i] + dx*d[i])) with
	// dx = ((x-xs[i])/h[i])*h[i] — the same operation sequence as computing
	// the coefficients inline at every call, hoisted to fit time. Before
	// that, the tridiagonal solve uses the four rows as its workspace.
	h, b, c, d []float64

	// Endpoint slopes for linear extrapolation beyond the knot range.
	slopeLo, slopeHi float64

	// buf backs the seven slices above: one region of cap(buf)/rows floats
	// each, so a refit that outgrows it allocates once, not once per slice.
	buf []float64
}

// rows is the number of regions carved from a spline's backing array.
const rows = 7

// ErrTooFewPoints is returned when fewer than two distinct x values are
// provided.
var ErrTooFewPoints = errors.New("spline: need at least two points with distinct x")

// Fit constructs a natural cubic spline through the given points. The points
// need not be sorted; duplicate x values are collapsed by averaging their y
// values. With exactly two distinct points the spline degenerates to a line.
func Fit(xs, ys []float64) (*Spline, error) {
	if len(xs) != len(ys) {
		return nil, errors.New("spline: xs and ys length mismatch")
	}
	x, y := dedupe(xs, ys)
	if len(x) < 2 {
		return nil, ErrTooFewPoints
	}
	s := &Spline{}
	s.refitSorted(x, y)
	return s, nil
}

// RefitSorted refits the spline in place through points whose x values are
// strictly increasing (the delay profiler's knot store maintains exactly
// that invariant). The backing array is reused, so a refit at or below the
// high-water-mark point count performs no allocation, and one above it
// allocates once. The fitted curve is identical — bit for bit — to Fit on
// the same points.
func (s *Spline) RefitSorted(xs, ys []float64) error {
	if len(xs) != len(ys) {
		return errors.New("spline: xs and ys length mismatch")
	}
	if len(xs) < 2 {
		return ErrTooFewPoints
	}
	if !increasing(xs) {
		return errors.New("spline: RefitSorted requires strictly increasing x")
	}
	s.refitSorted(xs, ys)
	return nil
}

// RefitRows refits the spline in place through n knots that fill writes
// straight into the spline's own knot rows (both of length n, x strictly
// increasing), so the caller keeps no copy of its knots to hand over. It runs
// the carve and solve RefitSorted does, so the curve is bit-identical to
// RefitSorted on the same points, and it allocates only when n passes the
// high-water mark. On an error the rows are the caller's and the spline holds
// no curve until a refit succeeds.
func (s *Spline) RefitRows(n int, fill func(xs, ys []float64)) error {
	if n < 2 {
		return ErrTooFewPoints
	}
	s.carve(n)
	fill(s.xs, s.ys)
	if !increasing(s.xs) {
		return errors.New("spline: RefitRows requires strictly increasing x")
	}
	s.solve()
	return nil
}

// Reserve hands the spline buf as its backing array when buf is larger than
// the backing it has. A spline carves seven rows per knot, so a buf of 7·k
// floats lets refits of up to k knots carve their rows from it and allocate
// nothing; past k the backing doubles onto the heap as usual, and a later
// Reserve of the same buf changes nothing. The spline keeps buf: its owner
// must not write it, nor move or copy it, while the spline may still be
// refitted or evaluated.
func (s *Spline) Reserve(buf []float64) {
	if cap(buf) > cap(s.buf) {
		s.buf = buf
	}
}

// increasing reports whether xs is strictly increasing.
func increasing(xs []float64) bool {
	for i := 1; i < len(xs); i++ {
		if xs[i] <= xs[i-1] {
			return false
		}
	}
	return true
}

// Knots returns the knot rows of the last fit: the exact inputs a refit
// would need to rebuild the same curve. They are the spline's own storage,
// to be read, not written.
func (s *Spline) Knots() (xs, ys []float64) { return s.xs, s.ys }

// refitSorted copies in the (sorted, distinct) knots and computes the solve
// plus all per-segment coefficients.
func (s *Spline) refitSorted(x, y []float64) {
	s.carve(len(x))
	copy(s.xs, x)
	copy(s.ys, y)
	s.solve()
}

// solve fits the curve through the knot rows: the second derivatives, then
// every per-segment coefficient.
func (s *Spline) solve() {
	clear(s.m)
	if len(s.xs) > 2 {
		s.solveNatural()
	}
	s.computeSegments()
}

// carve cuts the knot rows (xs, ys, m) at length n and the segment rows
// (h, b, c, d) at n-1 from the backing array, each region capped at its own
// end. A backing too small for n knots is replaced by one for at least twice
// as many, so a profile that gains knots one at a time reallocates O(log n)
// times. What the old backing held is not carried over: a refit overwrites
// every row.
func (s *Spline) carve(n int) {
	k := cap(s.buf) / rows
	if k < n {
		k = max(2*k, n)
		s.buf = make([]float64, rows*k)
	}
	region := func(i, l int) []float64 { return s.buf[i*k : i*k+l : (i+1)*k] }
	s.xs, s.ys, s.m = region(0, n), region(1, n), region(2, n)
	s.h, s.b, s.c, s.d = region(3, n-1), region(4, n-1), region(5, n-1), region(6, n-1)
}

// dedupe sorts points by x and averages the y values of duplicate x.
func dedupe(xs, ys []float64) (x, y []float64) {
	type pt struct{ x, y float64 }
	pts := make([]pt, len(xs))
	for i := range xs {
		pts[i] = pt{xs[i], ys[i]}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].x < pts[j].x })
	for i := 0; i < len(pts); {
		j := i
		var sum float64
		for j < len(pts) && pts[j].x == pts[i].x {
			sum += pts[j].y
			j++
		}
		x = append(x, pts[i].x)
		y = append(y, sum/float64(j-i))
		i = j
	}
	return x, y
}

// solveNatural fills s.m with the second derivatives of the natural cubic
// spline through the knots via the standard tridiagonal (Thomas) solve. The
// a/b/c/d bands live in the four coefficient rows, which computeSegments
// overwrites afterwards; the bands use indices 1..n-2, within the rows'
// n-1, and every entry the elimination reads is written by the setup loop
// first, so stale contents are harmless.
func (s *Spline) solveNatural() {
	x, y, m := s.xs, s.ys, s.m
	n := len(x)
	// Subdiagonal a, diagonal b, superdiagonal c, rhs d — for interior knots.
	a, b, c, d := s.h, s.b, s.c, s.d
	for i := 1; i < n-1; i++ {
		h0 := x[i] - x[i-1]
		h1 := x[i+1] - x[i]
		a[i] = h0
		b[i] = 2 * (h0 + h1)
		c[i] = h1
		d[i] = 6 * ((y[i+1]-y[i])/h1 - (y[i]-y[i-1])/h0)
	}
	// Forward elimination over i = 1..n-2 with natural boundaries m[0]=m[n-1]=0.
	for i := 2; i < n-1; i++ {
		w := a[i] / b[i-1]
		b[i] -= w * c[i-1]
		d[i] -= w * d[i-1]
	}
	// Back substitution.
	for i := n - 2; i >= 1; i-- {
		m[i] = (d[i] - c[i]*m[i+1]) / b[i]
	}
}

// computeSegments precomputes the per-segment Hermite coefficients and the
// endpoint slopes, using the exact expressions the pre-computation-free Eval
// and slopeAt used per call.
func (s *Spline) computeSegments() {
	n := len(s.xs)
	for i := 0; i < n-1; i++ {
		h := s.xs[i+1] - s.xs[i]
		s.h[i] = h
		s.b[i] = (s.ys[i+1]-s.ys[i])/h - h/6*(2*s.m[i]+s.m[i+1])
		s.c[i] = s.m[i] / 2
		s.d[i] = (s.m[i+1] - s.m[i]) / (6 * h)
	}
	// The left extrapolation slope is segment 0's linear coefficient; the
	// right one needs the one-sided form at the last knot. (With n == 2 both
	// reduce to the chord slope: m is all zero, and subtracting h/6·0 leaves
	// the chord term bit-exact.)
	s.slopeLo = s.b[0]
	hn := s.xs[n-1] - s.xs[n-2]
	s.slopeHi = (s.ys[n-1]-s.ys[n-2])/hn + hn/6*(s.m[n-2]+2*s.m[n-1])
}

// MaxX returns the largest knot x.
func (s *Spline) MaxX() float64 { return s.xs[len(s.xs)-1] }

// searchSegment returns the index i of the segment [xs[i], xs[i+1]] that
// evaluates x, for xs[0] < x < xs[n-1]. Segments are left-closed: an x
// exactly on knot k starts segment k; an x strictly between knots belongs
// to the segment of the knot on its left.
func (s *Spline) searchSegment(x float64) int {
	// First index with xs[i] >= x; i >= 1 because x > xs[0], and i <= n-1
	// because x < xs[n-1].
	i := sort.SearchFloat64s(s.xs, x)
	if s.xs[i] > x {
		i--
	}
	return i
}

// evalSegment evaluates segment i at x (which must lie in the segment's
// left-closed range for the cubic to be the interpolant).
func (s *Spline) evalSegment(i int, x float64) float64 {
	h := s.h[i]
	dx := (x - s.xs[i]) / h * h
	return s.ys[i] + dx*(s.b[i]+dx*(s.c[i]+dx*s.d[i]))
}

// Eval evaluates the spline at x. Outside the knots the spline is
// extended linearly with the slope at the nearest endpoint.
func (s *Spline) Eval(x float64) float64 {
	n := len(s.xs)
	if x <= s.xs[0] {
		return s.ys[0] + s.slopeLo*(x-s.xs[0])
	}
	if x >= s.xs[n-1] {
		return s.ys[n-1] + s.slopeHi*(x-s.xs[n-1])
	}
	return s.evalSegment(s.searchSegment(x), x)
}

// Evaluator is a cursor for evaluating the spline at many points. It keeps
// the piece the last point fell on — one cubic segment or one extrapolation
// ray — with its coefficients hoisted, so a point on the same piece costs no
// search, call or bounds-checked load. A point elsewhere moves the cursor one
// segment at a time, right or left; only the first interior point seeks by
// binary search. A monotone scan in either direction is therefore
// O(n + steps) rather than O(steps·log n), and Seek then At equals Eval for
// any input order. Go inlines each of the two but not their sum, so a hot
// loop spells the pair out and pays a call only when the piece changes. The
// zero Evaluator is not usable; obtain one from Spline.Evaluator. It is
// invalidated by a refit.
type Evaluator struct {
	s   *Spline
	seg int // segment to walk from, or -1 before any point has been placed

	// The cached piece covers from <= x < to (an empty range at first). On a
	// ray it evaluates y + b*(x-x0); on a segment, the cubic of evalSegment.
	from, to          float64
	ray               bool
	x0, h, y, b, c, d float64
}

// Evaluator returns a fresh, unpositioned cursor.
func (s *Spline) Evaluator() Evaluator { return Evaluator{s: s, seg: -1, from: 1, to: 0} }

// Seek places the cursor on the piece that holds x; it costs two comparisons
// when the cursor is already there.
func (e *Evaluator) Seek(x float64) {
	if !(e.from <= x && x < e.to) {
		e.move(x)
	}
}

// At evaluates the cached piece at x, which the last Seek must have been for.
func (e *Evaluator) At(x float64) float64 {
	if e.ray {
		return e.y + e.b*(x-e.x0)
	}
	dx := (x - e.x0) / e.h * e.h
	return e.y + dx*(e.b+dx*(e.c+dx*e.d))
}

// move caches the piece that holds x: a ray outside the knots, else the
// segment reached by walking from the last one.
func (e *Evaluator) move(x float64) {
	s := e.s
	n := len(s.xs)
	if x <= s.xs[0] {
		// The left ray owns x == xs[0]; segment 0 starts just above it.
		e.seg, e.ray = 0, true
		e.from, e.to = math.Inf(-1), math.Nextafter(s.xs[0], math.Inf(1))
		e.x0, e.y, e.b = s.xs[0], s.ys[0], s.slopeLo
		return
	}
	if x >= s.xs[n-1] {
		e.seg, e.ray = n-2, true
		e.from, e.to = s.xs[n-1], math.Inf(1)
		e.x0, e.y, e.b = s.xs[n-1], s.ys[n-1], s.slopeHi
		return
	}
	seg := e.seg
	if seg < 0 {
		seg = s.searchSegment(x)
	}
	// xs[0] < x < xs[n-1] bounds both walks.
	for x < s.xs[seg] {
		seg--
	}
	for x >= s.xs[seg+1] {
		seg++
	}
	e.seg, e.ray = seg, false
	e.from, e.to = s.xs[seg], s.xs[seg+1]
	if seg == 0 {
		e.from = math.Nextafter(s.xs[0], math.Inf(1))
	}
	e.x0, e.h, e.y = s.xs[seg], s.h[seg], s.ys[seg]
	e.b, e.c, e.d = s.b[seg], s.c[seg], s.d[seg]
}

// EvalGrid evaluates the spline at the grid lo + k*step for
// k = 0..len(out)-1, writing the results into out. Each grid point is
// computed exactly as Eval(lo + float64(k)*step) — same values bit for bit.
// For step >= 0 the grid is non-decreasing, so the scan runs in three
// phases (left extrapolation, interior, right extrapolation) with one
// incremental segment cursor and the current segment's coefficients hoisted
// into a tight inner loop — no per-point search, call, or bounds-checked
// coefficient load. A negative step falls back to point-wise Eval.
func (s *Spline) EvalGrid(lo, step float64, out []float64) {
	if step < 0 {
		for k := range out {
			out[k] = s.Eval(lo + float64(k)*step)
		}
		return
	}
	n := len(s.xs)
	nOut := len(out)
	x0, y0 := s.xs[0], s.ys[0]
	xN, yN := s.xs[n-1], s.ys[n-1]
	k := 0
	for ; k < nOut; k++ {
		x := lo + float64(k)*step
		if !(x <= x0) {
			break
		}
		out[k] = y0 + s.slopeLo*(x-x0)
	}
	seg := 0
	for k < nOut {
		x := lo + float64(k)*step
		if x >= xN {
			break
		}
		for seg < n-2 && x >= s.xs[seg+1] {
			seg++
		}
		// next is the segment's right knot: the inner loop owns every grid
		// point below it. For the last segment next == xN, so the inner loop
		// also yields exactly where right extrapolation takes over.
		next := s.xs[seg+1]
		xi, h := s.xs[seg], s.h[seg]
		yi, bi, ci, di := s.ys[seg], s.b[seg], s.c[seg], s.d[seg]
		for k < nOut {
			x = lo + float64(k)*step
			if x >= next {
				break
			}
			dx := (x - xi) / h * h
			out[k] = yi + dx*(bi+dx*(ci+dx*di))
			k++
		}
	}
	for ; k < nOut; k++ {
		x := lo + float64(k)*step
		out[k] = yN + s.slopeHi*(x-xN)
	}
}
