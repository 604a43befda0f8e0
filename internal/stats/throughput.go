package stats

import "time"

// ThroughputSeries accumulates (time, bytes) delivery events into fixed-size
// windows and reports per-window throughput in bits per second. It backs the
// windowed-throughput plots (Fig. 4, 11-14) and the 1-second fairness windows
// of Table 1.
//
// The first windows are held inline: bytes points at first from the first
// Add or load on, and grows past it by append. A series may be copied until
// then (a constructor's result into a block that holds it), never after.
type ThroughputSeries struct {
	window time.Duration
	bytes  []int64
	first  [firstWindows]int64
}

// firstWindows is how many windows a series holds before it allocates.
const firstWindows = 4

// NewThroughputSeries returns a series with the given window size.
func NewThroughputSeries(window time.Duration) *ThroughputSeries {
	if window <= 0 {
		panic("stats: throughput window must be positive")
	}
	return &ThroughputSeries{window: window}
}

// Add records that n bytes were delivered at time t (relative to the start of
// the measurement). Events may arrive out of order.
func (s *ThroughputSeries) Add(t time.Duration, n int) {
	if t < 0 {
		return
	}
	w := int(t / s.window)
	if s.bytes == nil {
		s.bytes = s.first[:0]
	}
	for len(s.bytes) <= w {
		s.bytes = append(s.bytes, 0)
	}
	s.bytes[w] += int64(n)
}

// Mbps returns per-window throughput in megabits per second.
func (s *ThroughputSeries) Mbps() []float64 {
	out := make([]float64, len(s.bytes))
	secs := s.window.Seconds()
	for i, b := range s.bytes {
		out[i] = float64(b) * 8 / secs / 1e6
	}
	return out
}

// TotalBytes returns the total bytes recorded.
func (s *ThroughputSeries) TotalBytes() int64 {
	var total int64
	for _, b := range s.bytes {
		total += b
	}
	return total
}
