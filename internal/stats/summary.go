// Package stats provides the statistical primitives used throughout the
// repository: running summaries, log-binned probability densities, windowed
// throughput series, delay attribution, and Jain's fairness index.
//
// All types are plain values with no hidden goroutines; they are safe for use
// from a single goroutine (the simulator event loop or a transport's ack
// loop). Wrap them in a mutex if shared.
package stats

import (
	"math"
	"math/bits"
	"sort"
)

// Summary accumulates samples and reports mean, min, max and percentiles. A
// percentile query selects the one or two order statistics it reads,
// permuting the samples in place; nothing is cached between queries.
//
// Samples are kept in segments, so recording never copies what it has kept.
// Up to segmentMin samples they are one slice that grows by append. Once that
// slice is full at segmentMin or more, it is set aside as it is and a new
// segment is opened, sized to half the total so far (segmentMin at least).
// Past a few segments, what a Summary holds stays within 1.5 times its
// samples, and what it has allocated within that plus the fixed cost of the
// appends below segmentMin. A percentile query joins the segments into one
// slice before it selects; every other read walks them in order.
type Summary struct {
	samples []float64 // the open segment: the newest samples, in order
	full    *segments // the segments before samples; nil while there are none
	sum     float64
	// sumSq is read by nothing but the snapshot walk; it stays so that
	// snapshot format v3 keeps its layout.
	sumSq float64
}

// segments are a Summary's closed segments, oldest first, and how many
// samples they hold.
type segments struct {
	segs [][]float64
	n    int
}

// segmentMin is the smallest full slice that Add sets aside rather than
// regrows, and the smallest segment it opens. Below it a Summary allocates as
// a plain append does, which covers a metro flow's few hundred samples.
// Append's first capacity at or above 3072 is 3408, so segments hold 3408,
// 3072, 3240, 4860, ... samples, each half the total before it.
const segmentMin = 3072

// NewSummary returns an empty Summary with capacity hint n.
func NewSummary(n int) *Summary {
	return &Summary{samples: make([]float64, 0, n)}
}

// Add records one sample.
func (s *Summary) Add(v float64) {
	if len(s.samples) == cap(s.samples) && cap(s.samples) >= segmentMin {
		s.openSegment(1)
	}
	s.samples = append(s.samples, v)
	s.sum += v
	s.sumSq += v * v
}

// openSegment sets the open segment aside and opens one sized to half the
// total so far, and to at least segmentMin and k. It runs once per 1.5-fold
// growth of the sample count.
func (s *Summary) openSegment(k int) {
	if s.full == nil {
		s.full = &segments{}
	}
	s.full.segs = append(s.full.segs, s.samples)
	s.full.n += len(s.samples)
	s.samples = make([]float64, 0, max(s.full.n/2, segmentMin, k))
}

// extend appends vs to the samples in order: it fills the open segment, then
// regrows it as append does below segmentMin or opens one more segment for
// the rest. It leaves the moments to its caller.
func (s *Summary) extend(vs []float64) {
	k := min(len(vs), cap(s.samples)-len(s.samples))
	s.samples = append(s.samples, vs[:k]...)
	if vs = vs[k:]; len(vs) == 0 {
		return
	}
	if cap(s.samples) < segmentMin {
		s.samples = append(s.samples, vs...)
		return
	}
	s.openSegment(len(vs))
	s.samples = append(s.samples, vs...)
}

// eachSegment calls f on every segment, oldest first: the segments s holds
// when it is called, so that f may add to s.
func (s *Summary) eachSegment(f func([]float64)) {
	open := s.samples
	if s.full != nil {
		for _, seg := range s.full.segs {
			f(seg)
		}
	}
	f(open)
}

// join makes samples the one segment, in order.
func (s *Summary) join() {
	if s.full == nil {
		return
	}
	all := make([]float64, 0, s.N())
	s.eachSegment(func(seg []float64) { all = append(all, seg...) })
	s.samples, s.full = all, nil
}

// Merge folds every sample of o into s, leaving o untouched. The metro
// harness uses it to build aggregate delay distributions across thousands of
// per-flow summaries.
func (s *Summary) Merge(o *Summary) {
	if o == nil || o.N() == 0 {
		return
	}
	o.eachSegment(s.extend)
	s.sum += o.sum
	s.sumSq += o.sumSq
}

// N returns the number of samples recorded.
func (s *Summary) N() int {
	if s.full == nil {
		return len(s.samples)
	}
	return s.full.n + len(s.samples)
}

// Mean returns the arithmetic mean, or 0 with no samples.
func (s *Summary) Mean() float64 {
	if s.N() == 0 {
		return 0
	}
	return s.sum / float64(s.N())
}

// first returns the oldest sample; s holds at least one.
func (s *Summary) first() float64 {
	if s.full != nil {
		return s.full.segs[0][0]
	}
	return s.samples[0]
}

// Min returns the smallest sample, or +Inf with no samples. A NaN sample
// orders below every number, as in sort.Float64s, so any NaN makes Min NaN.
func (s *Summary) Min() float64 {
	if s.N() == 0 {
		return math.Inf(1)
	}
	m := s.first()
	s.eachSegment(func(seg []float64) {
		for _, v := range seg {
			if v < m || v != v {
				m = v
			}
		}
	})
	return m
}

// Max returns the largest sample, or -Inf with no samples. NaN samples order
// below every number, so Max is NaN only when every sample is.
func (s *Summary) Max() float64 {
	if s.N() == 0 {
		return math.Inf(-1)
	}
	m := s.first()
	s.eachSegment(func(seg []float64) {
		for _, v := range seg {
			if v > m || m != m {
				m = v
			}
		}
	})
	return m
}

// Percentile returns the p-th percentile (0 <= p <= 100) using linear
// interpolation between closest ranks. It returns 0 with no samples.
//
// The two ranks are found by selection, not by sorting: selectNth places the
// lower rank's order statistic at its sorted position with nothing larger to
// its left and nothing smaller to its right, so the upper rank is the minimum
// of what lies to the right. Order statistics do not depend on how they were
// found, so the result is the one a full sort gives, bit for bit. Selection
// needs one slice, so the first query joins the segments.
func (s *Summary) Percentile(p float64) float64 {
	n := s.N()
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return s.Min()
	}
	if p >= 100 {
		return s.Max()
	}
	s.join()
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	// NaNs go first, where sort.Float64s puts them, and the selection kernel
	// compares numbers only. A rank inside the NaN prefix is already in place.
	nans := nansFirst(s.samples)
	if lo >= nans {
		selectNth(s.samples[nans:], lo-nans)
	}
	if lo == hi {
		return s.samples[lo]
	}
	vHi := s.samples[hi]
	for _, v := range s.samples[hi+1:] {
		if v < vHi {
			vHi = v
		}
	}
	frac := rank - float64(lo)
	return s.samples[lo]*(1-frac) + vHi*frac
}

// Median returns the 50th percentile.
func (s *Summary) Median() float64 { return s.Percentile(50) }

// nansFirst moves every NaN in a to the front and returns how many there are.
func nansFirst(a []float64) int {
	n := 0
	for i, v := range a {
		if v != v {
			a[i], a[n] = a[n], v
			n++
		}
	}
	return n
}

// selectNth permutes a, which must hold no NaN, so that a[k] is the element a
// full sort would put there, with a[:k] <= a[k] <= a[k+1:]. It is an
// introselect: quickselect on a median-of-three pivot, an insertion sort once
// the live range is small, and, after 2*ceil(log2 n) partitions that failed
// to shrink the range geometrically, a sort of what is left — so that no
// input costs more than the full sort this replaces. It reports whether that
// fallback ran.
func selectNth(a []float64, k int) (fellBack bool) {
	l, r := 0, len(a)-1
	for depth := 2 * bits.Len(uint(len(a)-1)); r-l >= 12; depth-- {
		if depth == 0 {
			sort.Float64s(a[l : r+1])
			return true
		}
		// Median of a[l], a[mid], a[r] goes to a[l+1] as the pivot, with the
		// other two left as sentinels at both ends of the scan.
		mid := int(uint(l+r) >> 1)
		a[mid], a[l+1] = a[l+1], a[mid]
		if a[l] > a[r] {
			a[l], a[r] = a[r], a[l]
		}
		if a[l+1] > a[r] {
			a[l+1], a[r] = a[r], a[l+1]
		}
		if a[l] > a[l+1] {
			a[l], a[l+1] = a[l+1], a[l]
		}
		pivot := a[l+1]
		i, j := l+1, r
		for {
			for i++; a[i] < pivot; i++ {
			}
			for j--; a[j] > pivot; j-- {
			}
			if j < i {
				break
			}
			a[i], a[j] = a[j], a[i]
		}
		a[l+1], a[j] = a[j], pivot
		if j >= k {
			r = j - 1
		}
		if j <= k {
			l = i
		}
		if k < l || r < k {
			return false // a[k] equals the pivot and is in place
		}
	}
	for i := l + 1; i <= r; i++ {
		for j := i; j > l && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
	return false
}
