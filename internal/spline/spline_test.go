package spline

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestFitErrors(t *testing.T) {
	if _, err := Fit([]float64{1}, []float64{2, 3}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := Fit([]float64{1}, []float64{2}); err != ErrTooFewPoints {
		t.Errorf("single point: got %v, want ErrTooFewPoints", err)
	}
	if _, err := Fit([]float64{1, 1, 1}, []float64{2, 4, 6}); err != ErrTooFewPoints {
		t.Errorf("all-duplicate x: got %v, want ErrTooFewPoints", err)
	}
}

func TestTwoPointLine(t *testing.T) {
	s, err := Fit([]float64{0, 10}, []float64{0, 20})
	if err != nil {
		t.Fatal(err)
	}
	for x := -5.0; x <= 15; x += 0.5 {
		if got, want := s.Eval(x), 2*x; math.Abs(got-want) > 1e-12 {
			t.Fatalf("Eval(%v) = %v, want %v", x, got, want)
		}
	}
}

func TestInterpolatesKnots(t *testing.T) {
	xs := []float64{0, 1, 2.5, 4, 7, 11}
	ys := []float64{3, -1, 4, 4, 0, 8}
	s, err := Fit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		if got := s.Eval(xs[i]); math.Abs(got-ys[i]) > 1e-9 {
			t.Errorf("Eval(%v) = %v, want %v", xs[i], got, ys[i])
		}
	}
}

func TestDuplicateXAveraged(t *testing.T) {
	s, err := Fit([]float64{0, 1, 1, 2}, []float64{0, 2, 4, 6})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Eval(1); math.Abs(got-3) > 1e-9 {
		t.Fatalf("duplicate x should average: Eval(1) = %v, want 3", got)
	}
	if len(s.xs) != 3 {
		t.Fatalf("knots = %d, want 3", len(s.xs))
	}
}

func TestUnsortedInput(t *testing.T) {
	s1, err := Fit([]float64{3, 1, 2}, []float64{9, 1, 4})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Fit([]float64{1, 2, 3}, []float64{1, 4, 9})
	if err != nil {
		t.Fatal(err)
	}
	for x := 1.0; x <= 3; x += 0.1 {
		if math.Abs(s1.Eval(x)-s2.Eval(x)) > 1e-12 {
			t.Fatalf("order-dependence at x=%v", x)
		}
	}
}

func TestLinearDataStaysLinear(t *testing.T) {
	// A natural cubic spline through collinear points is that line.
	xs := []float64{0, 1, 2, 3, 4, 5}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3*x + 1
	}
	s, err := Fit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	for x := -2.0; x <= 7; x += 0.25 {
		if got, want := s.Eval(x), 3*x+1; math.Abs(got-want) > 1e-9 {
			t.Fatalf("Eval(%v) = %v, want %v", x, got, want)
		}
	}
}

func TestExtrapolationIsLinear(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{0, 1, 8, 27}
	s, err := Fit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	// Beyond MaxX, second differences must vanish (linear growth).
	d1 := s.Eval(5) - s.Eval(4)
	d2 := s.Eval(6) - s.Eval(5)
	if math.Abs(d1-d2) > 1e-9 {
		t.Fatalf("right extrapolation not linear: %v vs %v", d1, d2)
	}
	d1 = s.Eval(-1) - s.Eval(-2)
	d2 = s.Eval(0) - s.Eval(-1)
	if math.Abs(d1-d2) > 1e-9 {
		t.Fatalf("left extrapolation not linear: %v vs %v", d1, d2)
	}
}

func TestContinuityAtKnots(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 12)
	ys := make([]float64, 12)
	for i := range xs {
		xs[i] = float64(i) + rng.Float64()*0.5
		ys[i] = rng.NormFloat64() * 10
	}
	s, err := Fit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	const h = 1e-7
	for i := 1; i < len(xs)-1; i++ {
		left := s.Eval(xs[i] - h)
		right := s.Eval(xs[i] + h)
		if math.Abs(left-right) > 1e-4 {
			t.Fatalf("discontinuity at knot %d: %v vs %v", i, left, right)
		}
		// First derivative continuity.
		dl := (s.Eval(xs[i]) - s.Eval(xs[i]-h)) / h
		dr := (s.Eval(xs[i]+h) - s.Eval(xs[i])) / h
		if math.Abs(dl-dr) > 1e-2*(1+math.Abs(dl)) {
			t.Fatalf("derivative jump at knot %d: %v vs %v", i, dl, dr)
		}
	}
}

// Property: the spline always passes through its knots, regardless of input.
func TestQuickKnotInterpolation(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + int(n)%30
		xs := make([]float64, k)
		ys := make([]float64, k)
		x := 0.0
		for i := range xs {
			x += 0.1 + rng.Float64()*5
			xs[i] = x
			ys[i] = rng.NormFloat64() * 100
		}
		s, err := Fit(xs, ys)
		if err != nil {
			return false
		}
		for i := range xs {
			if math.Abs(s.Eval(xs[i])-ys[i]) > 1e-6*(1+math.Abs(ys[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestSearchSegmentBoundaries pins the left-closed segment convention: an x
// exactly on knot k starts segment k, and anything strictly between knots
// belongs to the left knot's segment. (searchSegment is only defined for
// xs[0] < x < xs[n-1]; the endpoints themselves take the extrapolation
// branches of Eval.)
func TestSearchSegmentBoundaries(t *testing.T) {
	s, err := Fit([]float64{0, 1, 2.5, 4, 7}, []float64{0, 1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		x    float64
		want int
	}{
		{"between first two knots", 0.5, 0},
		{"just above first knot", math.Nextafter(0, 1), 0},
		{"just below second knot", math.Nextafter(1, 0), 0},
		{"exactly on interior knot", 1, 1},
		{"just above interior knot", math.Nextafter(1, 2), 1},
		{"mid interior segment", 3.0, 2},
		{"exactly on knot 2.5", 2.5, 2},
		{"exactly on penultimate knot", 4, 3},
		{"just below last knot", math.Nextafter(7, 0), 3},
	}
	for _, tc := range cases {
		if got := s.searchSegment(tc.x); got != tc.want {
			t.Errorf("%s: searchSegment(%v) = %d, want %d", tc.name, tc.x, got, tc.want)
		}
	}
}

// TestEvaluatorMatchesEval pins bit-identity between the cursor evaluator
// and point-wise Eval: on rising grids, on falling grids (the delay profile's
// top-down lookup, from a warm cursor and from a fresh one), in shuffled
// order, and across knot-exact points.
func TestEvaluatorMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		k := 2 + rng.Intn(40)
		xs := make([]float64, k)
		ys := make([]float64, k)
		x := 0.0
		for i := range xs {
			x += 0.1 + rng.Float64()*3
			xs[i] = x
			ys[i] = rng.NormFloat64() * 50
		}
		s, err := Fit(xs, ys)
		if err != nil {
			t.Fatal(err)
		}
		lo := s.xs[0] - 2
		hi := s.MaxX() + 2
		const steps = 257
		step := (hi - lo) / (steps - 1)
		grid := make([]float64, 0, steps+k)
		for i := 0; i < steps; i++ {
			grid = append(grid, lo+float64(i)*step)
		}
		grid = append(grid, xs...) // knot-exact points
		sort.Float64s(grid)

		e := s.Evaluator()
		for _, g := range grid {
			if got, want := cursorEval(&e, g), s.Eval(g); got != want {
				t.Fatalf("trial %d: cursor Eval(%v) = %v, Eval = %v (must be bit-identical)", trial, g, got, want)
			}
		}
		// Falling order steps the cursor left: first from where the rising
		// scan left it, then from a fresh cursor's binary-search seek.
		for _, ev := range []Evaluator{e, s.Evaluator()} {
			for i := len(grid) - 1; i >= 0; i-- {
				if got, want := cursorEval(&ev, grid[i]), s.Eval(grid[i]); got != want {
					t.Fatalf("trial %d: falling cursor Eval(%v) = %v, Eval = %v", trial, grid[i], got, want)
				}
			}
		}
		for _, i := range rng.Perm(len(grid)) {
			if got, want := cursorEval(&e, grid[i]), s.Eval(grid[i]); got != want {
				t.Fatalf("trial %d: shuffled cursor Eval(%v) = %v, Eval = %v", trial, grid[i], got, want)
			}
		}
		out := make([]float64, steps)
		s.EvalGrid(lo, step, out)
		for i := range out {
			if want := s.Eval(lo + float64(i)*step); out[i] != want {
				t.Fatalf("trial %d: EvalGrid[%d] = %v, Eval = %v", trial, i, out[i], want)
			}
		}
	}
}

// cursorEval evaluates e's spline at x as a hot loop does: Seek, then At.
func cursorEval(e *Evaluator, x float64) float64 {
	e.Seek(x)
	return e.At(x)
}

// TestRefitSortedMatchesFit pins that the in-place refit paths, RefitSorted
// and RefitRows, produce bit-identical curves to a fresh Fit, across
// successive refits reusing the same buffers (growing and shrinking the knot
// count), and that RefitRows leaves its inputs as the knot rows.
func TestRefitSortedMatchesFit(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var s, r Spline
	if len(s.xs) >= 2 {
		t.Fatal("zero Spline reports Ready")
	}
	for trial := 0; trial < 40; trial++ {
		k := 2 + rng.Intn(60)
		xs := make([]float64, k)
		ys := make([]float64, k)
		x := 0.0
		for i := range xs {
			x += 0.5 + rng.Float64()*2
			xs[i] = x
			ys[i] = rng.NormFloat64() * 20
		}
		if err := s.RefitSorted(xs, ys); err != nil {
			t.Fatal(err)
		}
		if err := r.RefitRows(k, func(rx, ry []float64) { copy(rx, xs); copy(ry, ys) }); err != nil {
			t.Fatal(err)
		}
		if rx, ry := r.Knots(); !slices.Equal(rx, xs) || !slices.Equal(ry, ys) {
			t.Fatalf("trial %d: RefitRows' knot rows are not its inputs", trial)
		}
		ref, err := Fit(xs, ys)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := xs[0]-3, xs[k-1]+3
		for g := 0; g < 200; g++ {
			xq := lo + (hi-lo)*float64(g)/199
			if got, want := s.Eval(xq), ref.Eval(xq); got != want {
				t.Fatalf("trial %d: refit Eval(%v) = %v, Fit Eval = %v", trial, xq, got, want)
			}
			if got, want := r.Eval(xq), ref.Eval(xq); got != want {
				t.Fatalf("trial %d: RefitRows Eval(%v) = %v, Fit Eval = %v", trial, xq, got, want)
			}
		}
	}
}

func TestRefitSortedErrors(t *testing.T) {
	var s Spline
	if err := s.RefitSorted([]float64{1}, []float64{1}); err != ErrTooFewPoints {
		t.Errorf("single point: got %v, want ErrTooFewPoints", err)
	}
	if err := s.RefitSorted([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch should error")
	}
	if err := s.RefitSorted([]float64{1, 1}, []float64{1, 2}); err == nil {
		t.Error("non-increasing x should error")
	}
	if err := s.RefitSorted([]float64{2, 1}, []float64{1, 2}); err == nil {
		t.Error("decreasing x should error")
	}
	// A failed refit must not clobber a previously fitted state.
	if err := s.RefitSorted([]float64{0, 1}, []float64{0, 2}); err != nil {
		t.Fatal(err)
	}
	if err := s.RefitSorted([]float64{5, 3}, []float64{0, 0}); err == nil {
		t.Fatal("decreasing x should error")
	}
	if got := s.Eval(0.5); got != 1 {
		t.Errorf("state clobbered by failed refit: Eval(0.5) = %v, want 1", got)
	}
	if err := s.RefitRows(1, func(xs, ys []float64) { t.Error("one knot filled") }); err != ErrTooFewPoints {
		t.Errorf("RefitRows of one knot: got %v, want ErrTooFewPoints", err)
	}
	if err := s.RefitRows(3, func(xs, ys []float64) { copy(xs, []float64{1, 3, 3}) }); err == nil {
		t.Error("RefitRows with non-increasing x should error")
	}
}

// TestRefitSortedZeroAllocs asserts the steady-state refit path allocates
// nothing once buffers are warm.
func TestRefitSortedZeroAllocs(t *testing.T) {
	n := 128
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
		ys[i] = float64(i%7) + 1
	}
	var s Spline
	if err := s.RefitSorted(xs, ys); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := s.RefitSorted(xs, ys); err != nil {
			t.Fatal(err)
		}
		if err := s.RefitRows(n, func(rx, ry []float64) { copy(rx, xs); copy(ry, ys) }); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("RefitSorted and RefitRows with warm buffers: %v allocs/run, want 0", allocs)
	}
}

// TestReserve refits a spline with a reserved backing of eight knots' rows
// through 2 to 8 knots with no allocation and its rows on that backing; the
// ninth knot moves the rows to the heap, and reserving the same array again
// leaves them there.
func TestReserve(t *testing.T) {
	xs, ys := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}, []float64{3, 1, 4, 1, 5, 9, 2, 6, 5}
	var buf [rows * 8]float64
	var s Spline
	s.Reserve(buf[:])
	allocs := testing.AllocsPerRun(1, func() {
		for k := 2; k <= 8; k++ {
			if err := s.RefitSorted(xs[:k], ys[:k]); err != nil {
				t.Fatal(err)
			}
		}
	})
	if kx, _ := s.Knots(); allocs != 0 || &kx[0] != &buf[0] {
		t.Fatalf("refits up to 8 knots on a reserved backing: %v allocs, rows on it %v; want 0 and true", allocs, &kx[0] == &buf[0])
	}
	if err := s.RefitSorted(xs, ys); err != nil {
		t.Fatal(err)
	}
	s.Reserve(buf[:])
	if kx, _ := s.Knots(); len(kx) != 9 || &kx[0] == &buf[0] {
		t.Fatalf("a fit of 9 knots is on the reserved backing of 8")
	}
	want, err := Fit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	for x := 0.5; x < 10; x += 0.25 {
		if got, w := s.Eval(x), want.Eval(x); got != w {
			t.Fatalf("Eval(%v) = %v, Fit's %v", x, got, w)
		}
	}
}

// TestRefitGrowthIsGeometric refits one spline through a knot set that gains
// one knot at a time, as a delay profile does, and counts the allocations:
// the spline's one backing array may regrow O(log n) times, not once per
// knot, nor once per row it holds.
func TestRefitGrowthIsGeometric(t *testing.T) {
	const n = 1024
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
		ys[i] = float64(i%7) + 1
	}
	allocs := testing.AllocsPerRun(1, func() {
		var s Spline
		for k := 2; k <= n; k++ {
			if err := s.RefitSorted(xs[:k], ys[:k]); err != nil {
				t.Fatal(err)
			}
		}
	})
	// One backing array, regrown at most once per doubling: 10 times from 2
	// to 1024 knots (86 when each of the eight rows grew on its own).
	if limit := bits.Len(n); allocs > float64(limit) {
		t.Fatalf("%d refits from 2 to %d knots allocated %v times, want at most %d", n-1, n, allocs, limit)
	}
	t.Logf("%d refits from 2 to %d knots allocated %v times", n-1, n, allocs)
}
