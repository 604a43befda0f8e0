package stats

import "time"

// WindowedMean accumulates (time, value) samples into fixed windows and
// reports the per-window mean — used for delay-over-time plots (Fig. 11) and
// any other time series of averages.
type WindowedMean struct {
	window time.Duration
	sums   []float64
	counts []int64
}

// NewWindowedMean returns a series with the given window size.
func NewWindowedMean(window time.Duration) *WindowedMean {
	if window <= 0 {
		panic("stats: windowed mean window must be positive")
	}
	return &WindowedMean{window: window}
}

// Add records one sample at time t.
func (s *WindowedMean) Add(t time.Duration, v float64) {
	if t < 0 {
		return
	}
	w := int(t / s.window)
	for len(s.sums) <= w {
		s.sums = append(s.sums, 0)
		s.counts = append(s.counts, 0)
	}
	s.sums[w] += v
	s.counts[w]++
}

// Means returns the per-window means; windows with no samples are NaN-free
// zeros.
func (s *WindowedMean) Means() []float64 {
	out := make([]float64, len(s.sums))
	for i := range s.sums {
		if s.counts[i] > 0 {
			out[i] = s.sums[i] / float64(s.counts[i])
		}
	}
	return out
}
