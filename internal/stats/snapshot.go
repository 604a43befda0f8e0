package stats

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/snap"
)

// Checkpoint support (DESIGN.md §Checkpoint). Accumulators checkpoint their running
// state bit-exactly: float sums are stored as IEEE-754 bit patterns, never
// recomputed from samples — re-summing in a different order would drift the
// low bits and move a golden digest. Sample order is preserved verbatim too:
// Summary.Percentile permutes the samples in place, so the in-memory order at
// snapshot time is observable in the next snapshot's bytes.

// Walk visits the summary's samples and running moments. The samples are one
// counted list in logical order, however many segments hold them: a save
// walks the segments without joining them, and a load fills one segment. A
// load fails on a NaN sample beside a sum that is a number, which no run
// produces and which would let a query skip moving the NaN out of selection's
// way.
func (s *Summary) Walk(w snap.Walker) {
	w.Tag("summary")
	if w.Loading() {
		w.F64s(&s.samples)
		s.full = nil
	} else {
		w.Len(s.N())
		s.eachSegment(func(seg []float64) {
			for i := range seg {
				w.F64(&seg[i])
			}
		})
	}
	w.F64(&s.sum)
	w.F64(&s.sumSq)
	if w.Loading() && w.Err() == nil && s.sum == s.sum && slices.ContainsFunc(s.samples, math.IsNaN) {
		w.Fail(fmt.Errorf("stats: summary snapshot holds a NaN sample beside the sum %v", s.sum))
	}
}

// Walk visits the per-window byte totals; the window size is configuration.
// A load decodes into the inline windows when they hold the count.
func (s *ThroughputSeries) Walk(w snap.Walker) {
	w.Tag("tput")
	w.SameDur(s.window, "stats: throughput window")
	if w.Loading() && s.bytes == nil {
		s.bytes = s.first[:0]
	}
	w.I64s(&s.bytes)
}

// Walk visits the per-window sums and counts; the window size is
// configuration. The wire holds every window's sum, then every window's
// count, as two counted lists. A load sizes the windows by the sums, whose
// count F64s has checked against the payload, and requires as many counts;
// the windows decode into the inline ones when they hold the count.
func (s *WindowedMean) Walk(w snap.Walker) {
	w.Tag("wmean")
	w.SameDur(s.window, "stats: windowed-mean window")
	if !w.Loading() {
		w.Len(len(s.cells))
		for i := range s.cells {
			w.F64(&s.cells[i].sum)
		}
		w.Len(len(s.cells))
		for i := range s.cells {
			w.I64(&s.cells[i].n)
		}
		return
	}
	var sums []float64
	w.F64s(&sums)
	if n := w.Len(0); w.Err() == nil && n != len(sums) {
		w.Fail(fmt.Errorf("stats: windowed-mean snapshot has %d sums but %d counts", len(sums), n))
	}
	if w.Err() != nil {
		return
	}
	if s.cells == nil {
		s.cells = s.first[:0]
	}
	s.cells = slices.Grow(s.cells[:0], len(sums))[:len(sums)]
	for i, v := range sums {
		s.cells[i].sum = v
		w.I64(&s.cells[i].n)
	}
}

// Walk visits the attribution aggregate: component sums, the identity ledger,
// and the total-delay histogram — all integers, so a load is bit-exact by
// construction.
func (a *Attribution) Walk(w snap.Walker) {
	w.Tag("attrib")
	w.FixedI64s(a.CompNs[:], "stats: attribution components")
	w.I64(&a.TotalNs)
	w.I64(&a.Count)
	w.I64(&a.Violations)
	w.I64(&a.Negatives)
	w.FixedI64s(a.totBuckets[:], "stats: attribution total row cells")
}
