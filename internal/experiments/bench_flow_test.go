package experiments

import (
	"testing"
	"time"

	"repro/internal/netsim"
)

// BenchmarkSingleFlowEpochRate is the end-to-end hot-path benchmark: one
// Verus flow over a 20 Mbps fixed-rate dumbbell for 30 simulated seconds —
// 6000 epoch ticks, each paying a delay-profile lookup, plus the full
// per-packet event-loop traffic. The metric is simulated epochs per
// wall-clock second; it is the single number the spline/profile/netsim
// optimizations exist to move.
func BenchmarkSingleFlowEpochRate(b *testing.B) {
	const simDur = 30 * time.Second
	epochs := float64(simDur / (5 * time.Millisecond))
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		Dumbbell{
			RateMbps:   20,
			QueueBytes: 1_000_000,
			Flows:      []netsim.FlowSpec{{Ctrl: VerusMaker(2).New()}},
			Seed:       42,
		}.Run(simDur)
	}
	elapsed := time.Since(start).Seconds()
	b.ReportMetric(epochs*float64(b.N)/elapsed, "epochs/s")
}
