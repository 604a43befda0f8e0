package stats

import (
	"math/rand"
	"testing"
)

// BenchmarkSummaryP95 measures the queries that close every trial, on n
// per-packet delays in arrival order. The nXXX cases ask one p95 of a presized
// Summary, whose samples are one segment. grown_n1e5 asks it of 10⁵ samples
// recorded by Add, which hold several segments: a trial's first query. The
// metro_n36e3 case asks metroCDFQuantiles (internal/experiments) back to back
// of one presized 36,000-sample Summary, as a metro render does. Each
// iteration first copies the same unordered samples back into the segments,
// and that copy is inside the timing: 1 to 4 % of an iteration up to 10⁵
// samples, about 9 % at 10⁶, where the samples outgrow the caches.
func BenchmarkSummaryP95(b *testing.B) {
	for _, bc := range []struct {
		name  string
		n     int
		grown bool
		ps    []float64
	}{
		{"n1e3", 1e3, false, []float64{95}},
		{"n1e5", 1e5, false, []float64{95}},
		{"n1e6", 1e6, false, []float64{95}},
		{"grown_n1e5", 1e5, true, []float64{95}},
		{"metro_n36e3", 36000, false, []float64{5, 25, 50, 75, 90, 95, 99}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			s := NewSummary(bc.n)
			if bc.grown {
				s = NewSummary(0)
			}
			for range bc.n {
				s.Add(0.02 + rng.ExpFloat64()*0.01)
			}
			if bc.grown && (s.full == nil || len(s.full.segs) < 2) {
				b.Fatal("a Summary grown by Add holds fewer than three segments")
			}
			var src []float64
			s.eachSegment(func(seg []float64) { src = append(src, seg...) })
			start := *s
			var sink float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				*s = start
				k := 0
				s.eachSegment(func(seg []float64) { k += copy(seg, src[k:]) })
				for _, p := range bc.ps {
					sink += s.Percentile(p)
				}
			}
			_ = sink
		})
	}
}
