package netsim

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkScheduleRun measures raw event-loop throughput: push b.N
// one-shot events in time order and drain them.
func BenchmarkScheduleRun(b *testing.B) {
	s := NewSim()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Schedule(time.Duration(i), fn)
	}
	s.Run(time.Duration(b.N))
}

// BenchmarkScheduleRunDeep measures event-loop throughput with a standing
// population of 1024 pending events, so every push and pop walks a
// non-trivial heap — the regime the simulator actually runs in (per-packet
// service, propagation, ack, RTO events all in flight at once).
func BenchmarkScheduleRunDeep(b *testing.B) {
	s := NewSim()
	fn := func() {}
	const standing = 1024
	for i := 0; i < standing; i++ {
		s.Schedule(time.Duration(i), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Pop the earliest event and push a replacement at the back, keeping
		// the heap at a constant depth.
		s.Schedule(time.Duration(standing+i), fn)
		s.Run(time.Duration(i + 1))
	}
}

// BenchmarkEveryTick measures the recurring-timer path: one Every timer
// ticking b.N times, the pattern behind every protocol's epoch tick and the
// RTO scanner.
func BenchmarkEveryTick(b *testing.B) {
	s := NewSim()
	ticks := 0
	stop := s.Every(time.Millisecond, func() { ticks++ })
	defer stop()
	b.ReportAllocs()
	b.ResetTimer()
	s.Run(time.Duration(b.N) * time.Millisecond)
	if ticks < b.N {
		b.Fatalf("ticks = %d, want >= %d", ticks, b.N)
	}
}

// BenchmarkSourceAck mirrors the committed benchmark's
// netsim.source.ack_ns_w* rungs: one Source holding a fixed window of w over
// an uncongested FixedLink, wall time per acknowledged packet. The per-ack
// host duties must not grow with the window.
func BenchmarkSourceAck(b *testing.B) {
	for _, w := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) {
			sim := NewSim()
			disp := NewDispatcher()
			link := NewFixedLink(sim, NewDropTail(1<<26), 20000, 5*time.Millisecond, disp, 1)
			src, m := NewSource(sim, 0, &fixedWindow{w: w}, link, 1400, 5*time.Millisecond, 0, 0)
			disp.Register(0, src.Sink())
			sim.Run(50 * time.Millisecond) // fill the window
			b.ReportAllocs()
			b.ResetTimer()
			// Whole round trips, so the last one overshoots b.N by up to a
			// window; ns/ack divides by what was actually acknowledged.
			before := m.Received
			for m.Received-before < int64(b.N) {
				sim.Run(sim.Now() + 10*time.Millisecond)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(m.Received-before), "ns/ack")
		})
	}
}

// BenchmarkFixedDelayHop mirrors netsim.sim.timer_ns_n1k: a standing
// population of same-interval timers, wall time per firing. Each firing is a
// lane pop and a lane push, whatever the depth.
func BenchmarkFixedDelayHop(b *testing.B) {
	for _, depth := range []int{64, 4096} {
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			sim := NewSim()
			fires := 0
			for i := 0; i < depth; i++ {
				sim.Every(5*time.Millisecond, func() { fires++ })
			}
			sim.Run(5 * time.Millisecond) // warm the ring
			b.ReportAllocs()
			b.ResetTimer()
			before := fires
			for fires-before < b.N {
				sim.Run(sim.Now() + 5*time.Millisecond)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(fires-before), "ns/firing")
		})
	}
}
