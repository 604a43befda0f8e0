package stats

import "time"

// WindowedMean accumulates (time, value) samples into fixed windows and
// reports the per-window mean — used for delay-over-time plots (Fig. 11) and
// any other time series of averages.
//
// Like ThroughputSeries, it holds its first windows inline: cells points at
// first from the first Add or load on, so a series may be copied until then,
// never after.
type WindowedMean struct {
	window time.Duration
	cells  []meanCell
	first  [firstWindows]meanCell
}

// meanCell is one window's sum of samples and their count. A window's two
// numbers share one slice, so a series grows one buffer, not two.
type meanCell struct {
	sum float64
	n   int64
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
	if s.cells == nil {
		s.cells = s.first[:0]
	}
	for len(s.cells) <= w {
		s.cells = append(s.cells, meanCell{})
	}
	s.cells[w].sum += v
	s.cells[w].n++
}

// Means returns the per-window means; windows with no samples are NaN-free
// zeros.
func (s *WindowedMean) Means() []float64 {
	out := make([]float64, len(s.cells))
	for i, c := range s.cells {
		if c.n > 0 {
			out[i] = c.sum / float64(c.n)
		}
	}
	return out
}
