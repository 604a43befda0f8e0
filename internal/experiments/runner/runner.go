// Package runner executes independent experiment trials on a pool of worker
// goroutines while preserving deterministic results.
//
// The contract every harness in internal/experiments relies on:
//
//   - Each trial receives a seed derived purely from (baseSeed, Job.Key) via
//     a splitmix64 finalizer — workers never share RNG state, so the seed a
//     trial sees is independent of scheduling order and worker count.
//   - Results are returned in input order regardless of completion order.
//   - A trial runs start-to-finish on a single worker goroutine. Each trial
//     must build its own netsim.Sim (the simulator is single-goroutine); the
//     pool never migrates or shares a trial across workers.
//
// Together these make a Pool of any size produce byte-identical harness
// output: Map with 1 worker and Map with N workers render the same tables.
package runner

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool sizes the worker set used by Map. The zero value and New(0) both run
// GOMAXPROCS workers; New(1) reproduces the serial path exactly.
type Pool struct {
	workers int
}

// New returns a pool of n workers. n <= 0 selects GOMAXPROCS.
func New(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: n}
}

// Workers reports the pool's worker count.
func (p *Pool) Workers() int {
	if p == nil || p.workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return p.workers
}

// Job is one independent trial. Key feeds seed derivation: the same key
// always yields the same seed, so a harness's seed plan is stable no matter
// how trials are batched. Trials that need independent randomness use
// distinct keys; trials that must replay an identical random environment
// (e.g. every protocol facing the same Fig. 11 parameter path) share one.
type Job[T any] struct {
	// Key identifies the trial within its harness (e.g. the scenario ×
	// protocol × rep harnesses' scenarioKey + 100·protocol + repetition).
	Key int64
	// Run executes the trial with its derived seed and returns its result.
	Run func(seed int64) T
}

// Map runs all jobs on the pool's workers and returns their results in input
// order. Each job's Run is invoked exactly once, on a single goroutine, with
// DeriveSeed(baseSeed, job.Key). A panic in any job is re-raised on the
// caller's goroutine after the remaining workers drain.
func Map[T any](p *Pool, baseSeed int64, jobs []Job[T]) []T {
	out := make([]T, len(jobs))
	n := p.Workers()
	if n > len(jobs) {
		n = len(jobs)
	}
	if n <= 1 {
		for i, j := range jobs {
			out[i] = j.Run(DeriveSeed(baseSeed, j.Key))
		}
		return out
	}
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	var panicOnce sync.Once
	var panicked any
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() { panicked = r })
				}
			}()
			for {
				i := next.Add(1)
				if i >= int64(len(jobs)) {
					return
				}
				out[i] = jobs[i].Run(DeriveSeed(baseSeed, jobs[i].Key))
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	return out
}

// Go runs a single trial through the pool's seed-derivation scheme. It is
// the one-job case of Map, used by harnesses whose workload is a single
// simulation so every experiment shares the same seeding contract.
func Go[T any](p *Pool, baseSeed, key int64, run func(seed int64) T) T {
	return Map(p, baseSeed, []Job[T]{{Key: key, Run: run}})[0]
}

// DeriveSeed maps (base, key) to a trial seed with a splitmix64-style
// finalizer. The mixing guarantees that nearby keys (rep 0, 1, 2, ...) yield
// statistically unrelated seeds while remaining a pure function of the
// inputs — the root of the pool's determinism contract.
func DeriveSeed(base, key int64) int64 {
	z := uint64(base) + 0x9E3779B97F4A7C15*(uint64(key)+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}
