package verus

import (
	"math"
	"testing"
)

// benchProfile builds a delay profile with n knots at windows 1..n, refit
// and ready for lookups — the steady state of a long-running flow.
func benchProfile(n int) *delayProfile {
	p := &delayProfile{}
	for w := 1; w <= n; w++ {
		p.update(w, 0.02+0.0004*math.Pow(float64(w), 1.3), 1)
	}
	p.refit(1)
	return p
}

// BenchmarkProfileUpdate measures folding an ack's (window, delay) sample
// into an existing knot — the per-ack hot path.
func BenchmarkProfileUpdate(b *testing.B) {
	p := benchProfile(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.update(1+i%256, 0.025, int64(i))
	}
}

// BenchmarkProfileRefit measures re-interpolating a 256-knot profile, the
// once-per-second (plus range-growth-triggered) spline rebuild.
func BenchmarkProfileRefit(b *testing.B) {
	p := benchProfile(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.dirty = true
		p.refit(int64(i + 2))
	}
}

// BenchmarkLookup measures the per-epoch window lookup, the dominant cost of
// Tick, by how far the top-down scan has to walk. hit_top is the steady
// state: the answer sits a few grid points below hi. hit_mid walks half of a
// 512-point grid. miss walks all 4096 points of the steps clamp and finds
// nothing, which is what a forward pass over the whole grid always cost;
// miss64 does the same on the 64-point floor, the grid a flow under faults
// misses on.
func BenchmarkLookup(b *testing.B) {
	p := benchProfile(256)
	for _, bc := range []struct {
		name       string
		target, hi float64
	}{
		{"hit_top", p.delayAt(250), 256},
		{"hit_mid", p.delayAt(128), 256},
		{"miss", p.delayAt(1) / 2, 2048},
		{"miss64", p.delayAt(1) / 2, 31},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var sink float64
			for i := 0; i < b.N; i++ {
				w, _ := p.lookup(bc.target, bc.hi)
				sink += w
			}
			_ = sink
		})
	}
}
