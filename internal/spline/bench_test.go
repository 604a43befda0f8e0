package spline

import (
	"math"
	"testing"
)

// benchSpline fits a delay-profile-shaped spline: knots at integer windows
// 1..n with a gently convex delay curve, matching what delayProfile feeds
// Fit in steady state.
func benchSpline(n int) *Spline {
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		w := float64(i + 1)
		xs[i] = w
		ys[i] = 0.02 + 0.0004*math.Pow(w, 1.3)
	}
	s, err := Fit(xs, ys)
	if err != nil {
		panic(err)
	}
	return s
}

// BenchmarkEval measures a single point evaluation on a 256-knot spline,
// cycling x across the knot range so the segment search cannot be trivially
// predicted.
func BenchmarkEval(b *testing.B) {
	s := benchSpline(256)
	span := s.MaxX() - s.xs[0]
	var sink float64
	for i := 0; i < b.N; i++ {
		x := s.xs[0] + span*float64(i%97)/97
		sink += s.Eval(x)
	}
	_ = sink
}

// BenchmarkEvalGrid4096 measures the delay-profile lookup workload: 4096
// evaluations on a rising grid spanning the knot range and the linear
// extrapolation beyond it (lookup probes up to 2x the observed window),
// through the cursor-based batch evaluator.
func BenchmarkEvalGrid4096(b *testing.B) {
	s := benchSpline(256)
	const steps = 4096
	lo := 1.0
	hi := s.MaxX() * 2
	step := (hi - lo) / float64(steps-1)
	out := make([]float64, steps)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.EvalGrid(lo, step, out)
	}
	_ = out
}

// BenchmarkEvalGrid4096PointWise is the same grid through point-wise Eval —
// a binary search per step — kept as the baseline the cursor is measured
// against.
func BenchmarkEvalGrid4096PointWise(b *testing.B) {
	s := benchSpline(256)
	const steps = 4096
	lo := 1.0
	hi := s.MaxX() * 2
	step := (hi - lo) / float64(steps-1)
	out := make([]float64, steps)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < steps; k++ {
			out[k] = s.Eval(lo + float64(k)*step)
		}
	}
	_ = out
}

// BenchmarkFit measures a full 256-knot fit from unsorted input, the cost
// delayProfile pays at every refit.
func BenchmarkFit(b *testing.B) {
	n := 256
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		w := float64(i + 1)
		xs[i] = w
		ys[i] = 0.02 + 0.0004*math.Pow(w, 1.3)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fit(xs, ys); err != nil {
			b.Fatal(err)
		}
	}
}
