package snap

import (
	"fmt"
	"math/rand"
)

// Source is a math/rand Source64 that remembers its seed and counts state
// advances, which makes the stream position serializable: a snapshot is the
// pair (seed, draws), and restore reseeds and replays that many advances.
//
// Counting happens at the source level, not the rand.Rand API level, on
// purpose: rand.Rand methods consume a variable number of source draws
// (Int63n rejection-samples, Float64 re-draws values that round to 1), so an
// API-level count would not locate the stream position. Every source-level
// call — Int63 or Uint64 — advances the underlying generator exactly one
// step, so one counter captures the position regardless of which mix of
// rand.Rand methods produced the draws.
//
// The wrapped source is rand.NewSource(seed), so rand.New(NewSource(seed))
// produces bit-for-bit the value stream of rand.New(rand.NewSource(seed)) —
// adopting Source inside a component cannot move a golden digest.
type Source struct {
	seed  int64
	draws uint64
	src   rand.Source64
}

// NewSource returns a counting source seeded with seed.
func NewSource(seed int64) *Source {
	src, ok := rand.NewSource(seed).(rand.Source64)
	if !ok {
		// rand.NewSource has returned a Source64 since Go 1.8; a runtime
		// that breaks that would silently fork every RNG stream here.
		panic("snap: rand.NewSource does not implement rand.Source64")
	}
	return &Source{seed: seed, src: src}
}

// Int63 implements rand.Source.
func (s *Source) Int63() int64 {
	s.draws++
	return s.src.Int63()
}

// Uint64 implements rand.Source64.
func (s *Source) Uint64() uint64 {
	s.draws++
	return s.src.Uint64()
}

// Seed implements rand.Source, resetting the draw count with the stream.
func (s *Source) Seed(seed int64) {
	s.seed = seed
	s.draws = 0
	s.src.Seed(seed)
}

// Walk visits the stream position (seed, draws). A load reseeds and
// fast-forwards to it: each Int63 and Uint64 call advances the generator
// exactly one step, so replaying with Uint64 reproduces the state no matter
// which methods performed the original draws.
func (s *Source) Walk(w Walker) {
	seed, draws := s.seed, s.draws
	w.I64(&seed)
	w.U64(&draws)
	if !w.Loading() || w.Err() != nil {
		return
	}
	// ~2.7e8 draws, under a second of replay. A component draws a handful of
	// times per packet and the longest trials here move ~5e6 packets through
	// one, so no run comes within 10x of it; a count past it is refused, not
	// replayed, or a hostile snapshot could buy minutes of CPU with 8 bytes.
	const maxReplay = 1 << 28
	if draws > maxReplay {
		w.Fail(fmt.Errorf("snap: RNG draw count %d exceeds replay bound", draws))
		return
	}
	s.Seed(seed)
	for i := uint64(0); i < draws; i++ {
		s.src.Uint64()
	}
	s.draws = draws
}
