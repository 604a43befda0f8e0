package runner

import "math/rand"

// NewRand returns the canonical trial RNG: a *rand.Rand that is a pure
// function of the given seed, which callers obtain from DeriveSeed (Map and
// Go pass it to every Job.Run).
//
// This constructor is the sanctioned path for randomness in the experiment
// harnesses: the noglobalrand analyzer forbids direct math/rand imports in
// internal/experiments outside this package, so every harness RNG is
// auditable here and in the seed-derivation scheme above it. The underlying
// generator is math/rand's seeded source — byte-compatible with the
// rand.New(rand.NewSource(seed)) calls it replaces, which is what keeps the
// golden digests of DESIGN.md §Experiments unchanged.
func NewRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}
