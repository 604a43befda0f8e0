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
// appends below segmentMin. Every read walks the segments in order, and a
// percentile query selects across them where they are: positions run from
// the oldest segment's first sample to the open segment's last, and no query
// joins the segments or allocates.
type Summary struct {
	samples []float64 // the open segment: the newest samples, in order
	full    *segments // the segments before samples; nil while there are none
	// sum is the running sum of the samples, and of every merged Summary's.
	// A NaN absorbs every addition, so a Summary whose sum is a number holds
	// no NaN, and a query skips moving NaNs (see Percentile).
	sum float64
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

// NewSummaryIn returns an empty Summary that records its first len(buf)
// samples in buf, which the caller owns and must not move or reuse while the
// Summary lives. The buffer is capped at its own end, so the sample after
// those moves the samples to a slice of the Summary's own, as it would from
// NewSummary(len(buf)): a flow's metrics hold their first samples inline.
func NewSummaryIn(buf []float64) *Summary {
	return &Summary{samples: buf[:0:len(buf)]}
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
// interpolation between closest ranks. It returns 0 with no samples, and NaN
// for a NaN p.
//
// The two ranks are found by selection, not by sorting: selectNth places the
// lower rank's order statistic at its sorted position with nothing larger
// before it and nothing smaller after it, so the upper rank is the minimum of
// what follows. Order statistics do not depend on how they were found, so the
// result is the one a full sort gives, bit for bit. The query permutes the
// samples where they are, across segments, and allocates nothing.
func (s *Summary) Percentile(p float64) float64 {
	n := s.N()
	switch {
	case n == 0:
		return 0
	case p != p:
		return math.NaN()
	case p <= 0:
		return s.Min()
	case p >= 100:
		return s.Max()
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	// NaNs go first, where sort.Float64s puts them, and the selection kernel
	// compares numbers only. A rank inside the NaN prefix is already in place.
	// Only a NaN sum can mean a NaN sample (see sum); one that +Inf and -Inf
	// made costs the pass and nothing more.
	nans := 0
	if s.sum != s.sum {
		nans = s.nansFirst()
	}
	if lo >= nans {
		s.selectNth(nans, lo)
	}
	vLo := *s.at(lo)
	if lo == hi {
		return vLo
	}
	vHi := *s.at(hi)
	for i := hi + 1; i < n; {
		run := s.run(i, n)
		for _, v := range run {
			if v < vHi {
				vHi = v
			}
		}
		i += len(run)
	}
	frac := rank - float64(lo)
	return vLo*(1-frac) + vHi*frac
}

// Median returns the 50th percentile.
func (s *Summary) Median() float64 { return s.Percentile(50) }

// A cursor is a window on the segment that holds some position of a
// Summary's samples taken in logical order, oldest segment first: position i,
// for off <= i < off+len(seg), is seg[i-off].
type cursor struct {
	seg []float64
	off int
}

// cursorAt returns the cursor on the segment holding position i, which must
// be below N.
func (s *Summary) cursorAt(i int) cursor {
	off := 0
	if s.full != nil {
		if i >= s.full.n {
			return cursor{s.samples, s.full.n}
		}
		for _, seg := range s.full.segs {
			if i < off+len(seg) {
				return cursor{seg, off}
			}
			off += len(seg)
		}
	}
	return cursor{s.samples, off}
}

// up returns the first position from i on, within c's segment, whose sample
// is not below pivot, or the position just past the segment. It and down
// inline, so a scan steps element by element as it would in one slice and
// looks up a cursor only where it crosses into the next segment.
func (c cursor) up(i int, pivot float64) int {
	d := uint(i - c.off)
	for d < uint(len(c.seg)) && c.seg[d] < pivot {
		d++
	}
	return c.off + int(d)
}

// down returns the last position up to i, within c's segment, whose sample
// is not above pivot, or the position just before the segment.
func (c cursor) down(i int, pivot float64) int {
	d := i - c.off
	for uint(d) < uint(len(c.seg)) && c.seg[d] > pivot {
		d--
	}
	return c.off + d
}

// at returns the sample at position i.
func (s *Summary) at(i int) *float64 {
	c := s.cursorAt(i)
	return &c.seg[i-c.off]
}

// run returns the samples from position i up to end, or as many of them as
// the segment holding i has.
func (s *Summary) run(i, end int) []float64 {
	c := s.cursorAt(i)
	return c.seg[i-c.off : min(len(c.seg), end-c.off)]
}

// nansFirst moves every NaN to the front and returns how many there are.
func (s *Summary) nansFirst() int {
	n, total := 0, s.N()
	for i := 0; i < total; {
		run := s.run(i, total)
		for k, v := range run {
			if v != v {
				w := s.at(n)
				run[k], *w = *w, v
				n++
			}
		}
		i += len(run)
	}
	return n
}

// selectNth permutes the samples from position l on, which must hold no NaN,
// so that position k holds what a full sort of them would put there, with
// nothing larger before it and nothing smaller after it. It is an
// introselect: quickselect on a median-of-three pivot, an insertion sort once
// the live range is small, and, after 2*ceil(log2 n) partitions that failed
// to shrink the range geometrically, a sort of what is left — so that no
// input costs more than the full sort this replaces. It reports whether that
// fallback ran, the only path that allocates.
//
// Positions run across segments: the pivot's three candidates are found by
// position, and the two scans of each partition walk cursors that step from
// one segment into the next. The swaps are those the same selection makes on
// one slice, in the same order.
func (s *Summary) selectNth(l, k int) (fellBack bool) {
	r := s.N() - 1
	for depth := 2 * bits.Len(uint(r-l)); r-l >= 12; depth-- {
		if depth == 0 {
			a := s.gather(make([]float64, 0, r+1-l), l, r+1)
			sort.Float64s(a)
			s.scatter(l, a)
			return true
		}
		// Median of a[l], a[mid], a[r] goes to a[l+1] as the pivot, with the
		// other two left as sentinels at both ends of the scan.
		al, al1, amid, ar := s.at(l), s.at(l+1), s.at(int(uint(l+r)>>1)), s.at(r)
		*amid, *al1 = *al1, *amid
		if *al > *ar {
			*al, *ar = *ar, *al
		}
		if *al1 > *ar {
			*al1, *ar = *ar, *al1
		}
		if *al > *al1 {
			*al, *al1 = *al1, *al
		}
		pivot := *al1
		i, j := s.partition(l+1, r, pivot)
		*al1, *s.at(j) = *s.at(j), pivot
		if j >= k {
			r = j - 1
		}
		if j <= k {
			l = i
		}
		if k < l || r < k {
			return false // position k equals the pivot and is in place
		}
	}
	// At most 12 samples are left: insertion-sort a copy and write it back.
	var buf [12]float64
	a := s.gather(buf[:0], l, r+1)
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
	s.scatter(l, a)
	return false
}

// partition is selectNth's Hoare partition of positions i to j around pivot,
// which sits at i with a sample no larger before it and none smaller at j as
// sentinels. The two scans walk a cursor each, and partition returns where
// they crossed.
func (s *Summary) partition(i, j int, pivot float64) (int, int) {
	ic, jc := s.cursorAt(i), s.cursorAt(j)
	for {
		for i = ic.up(i+1, pivot); i == ic.off+len(ic.seg); i = ic.up(i, pivot) {
			ic = s.cursorAt(i)
		}
		for j = jc.down(j-1, pivot); j < jc.off; j = jc.down(j, pivot) {
			jc = s.cursorAt(j)
		}
		if j < i {
			return i, j
		}
		ic.seg[i-ic.off], jc.seg[j-jc.off] = jc.seg[j-jc.off], ic.seg[i-ic.off]
	}
}

// gather appends the samples at positions l up to end to dst.
func (s *Summary) gather(dst []float64, l, end int) []float64 {
	for i := l; i < end; {
		run := s.run(i, end)
		dst = append(dst, run...)
		i += len(run)
	}
	return dst
}

// scatter writes src over the samples from position l on.
func (s *Summary) scatter(l int, src []float64) {
	for len(src) > 0 {
		n := copy(s.run(l, l+len(src)), src)
		l, src = l+n, src[n:]
	}
}
