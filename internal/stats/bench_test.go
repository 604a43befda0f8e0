package stats

import (
	"math/rand"
	"testing"
)

// BenchmarkSummaryP95 measures the query that closes every trial: the p95 of
// n per-packet delays in arrival order. Each iteration starts from the same
// unordered samples, so the refill copy (a few percent of the query) is
// inside the timing.
func BenchmarkSummaryP95(b *testing.B) {
	for _, bc := range []struct {
		name string
		n    int
	}{{"n1e3", 1e3}, {"n1e5", 1e5}, {"n1e6", 1e6}} {
		b.Run(bc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			src := make([]float64, bc.n)
			for i := range src {
				src[i] = 0.02 + rng.ExpFloat64()*0.01
			}
			s := NewSummary(bc.n)
			var sink float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.samples = append(s.samples[:0], src...)
				sink += s.Percentile(95)
			}
			_ = sink
		})
	}
}
