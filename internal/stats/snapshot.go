package stats

import (
	"fmt"

	"repro/internal/snap"
)

// Checkpoint support (DESIGN.md §10). Accumulators checkpoint their running
// state bit-exactly: float sums are stored as IEEE-754 bit patterns, never
// recomputed from samples — re-summing in a different order would drift the
// low bits and move a golden digest. Sample order is preserved verbatim too:
// Summary.Percentile permutes the samples in place, so the in-memory order at
// snapshot time is observable in the next snapshot's bytes.

// Walk visits the summary's samples and running moments.
func (s *Summary) Walk(w snap.Walker) {
	w.Tag("summary")
	w.F64s(&s.samples)
	w.F64(&s.sum)
	w.F64(&s.sumSq)
}

// Walk visits the per-window byte totals; the window size is configuration.
func (s *ThroughputSeries) Walk(w snap.Walker) {
	w.Tag("tput")
	w.SameDur(s.window, "stats: throughput window")
	w.I64s(&s.bytes)
}

// Walk visits the per-window sums and counts; the window size is
// configuration.
func (s *WindowedMean) Walk(w snap.Walker) {
	w.Tag("wmean")
	w.SameDur(s.window, "stats: windowed-mean window")
	w.F64s(&s.sums)
	w.I64s(&s.counts)
	if w.Loading() && w.Err() == nil && len(s.sums) != len(s.counts) {
		w.Fail(fmt.Errorf("stats: windowed-mean snapshot has %d sums but %d counts", len(s.sums), len(s.counts)))
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
