package runner

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

func TestDeriveSeedDeterministic(t *testing.T) {
	for _, base := range []int64{0, 1, 42, -7, 1 << 40} {
		for key := int64(0); key < 100; key++ {
			a := DeriveSeed(base, key)
			b := DeriveSeed(base, key)
			if a != b {
				t.Fatalf("DeriveSeed(%d,%d) not stable: %d vs %d", base, key, a, b)
			}
		}
	}
}

func TestDeriveSeedSpreadsNearbyKeys(t *testing.T) {
	// Sequential keys (rep 0,1,2,...) must not produce sequential seeds —
	// that is the whole point of the splitmix finalizer.
	seen := map[int64]bool{}
	for key := int64(0); key < 1000; key++ {
		s := DeriveSeed(42, key)
		if seen[s] {
			t.Fatalf("seed collision at key %d", key)
		}
		seen[s] = true
		if key > 0 && s == DeriveSeed(42, key-1)+1 {
			t.Fatalf("seeds for keys %d,%d are sequential", key-1, key)
		}
	}
	// Distinct bases must decorrelate too.
	if DeriveSeed(1, 5) == DeriveSeed(2, 5) {
		t.Fatal("different bases produced the same seed")
	}
}

func TestMapOrderAndSeeds(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 64} {
		p := New(workers)
		jobs := make([]Job[string], 100)
		for i := range jobs {
			jobs[i] = Job[string]{
				Key: int64(i * 3),
				Run: func(seed int64) string { return fmt.Sprintf("%d:%d", i, seed) },
			}
		}
		got := Map(p, 99, jobs)
		if len(got) != len(jobs) {
			t.Fatalf("workers=%d: got %d results", workers, len(got))
		}
		for i, g := range got {
			want := fmt.Sprintf("%d:%d", i, DeriveSeed(99, int64(i*3)))
			if g != want {
				t.Fatalf("workers=%d: result[%d] = %q, want %q", workers, i, g, want)
			}
		}
	}
}

func TestMapSerialParallelEquivalence(t *testing.T) {
	// A stateful trial (its own RNG seeded from the derived seed) must give
	// identical results at any worker count.
	mk := func(workers int) []float64 {
		jobs := make([]Job[float64], 50)
		for i := range jobs {
			jobs[i] = Job[float64]{Key: int64(i), Run: func(seed int64) float64 {
				rng := rand.New(rand.NewSource(seed))
				var s float64
				for k := 0; k < 1000; k++ {
					s += rng.Float64()
				}
				return s
			}}
		}
		return Map(New(workers), 7, jobs)
	}
	serial := mk(1)
	for _, w := range []int{2, 4, 16} {
		par := mk(w)
		for i := range serial {
			if par[i] != serial[i] {
				t.Fatalf("workers=%d: result[%d] = %v, want %v", w, i, par[i], serial[i])
			}
		}
	}
}

func TestMapEmptyAndSingle(t *testing.T) {
	p := New(4)
	if got := Map[int](p, 1, nil); len(got) != 0 {
		t.Fatalf("empty jobs gave %d results", len(got))
	}
	got := Map(p, 1, []Job[int]{{Key: 9, Run: func(seed int64) int { return int(seed) }}})
	if got[0] != int(DeriveSeed(1, 9)) {
		t.Fatalf("single job seed = %d, want %d", got[0], DeriveSeed(1, 9))
	}
	if g := Go(p, 1, 9, func(seed int64) int { return int(seed) }); g != got[0] {
		t.Fatalf("Go = %d, want %d", g, got[0])
	}
}

func TestMapRunsEachJobOnce(t *testing.T) {
	var mu sync.Mutex
	counts := make([]int, 200)
	jobs := make([]Job[int], len(counts))
	for i := range jobs {
		jobs[i] = Job[int]{Key: int64(i), Run: func(int64) int {
			mu.Lock()
			counts[i]++
			mu.Unlock()
			return i
		}}
	}
	Map(New(8), 0, jobs)
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("job %d ran %d times", i, c)
		}
	}
}

func TestMapPropagatesPanic(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("panic in a job did not propagate")
		}
	}()
	jobs := make([]Job[int], 16)
	for i := range jobs {
		jobs[i] = Job[int]{Key: int64(i), Run: func(int64) int {
			if i == 7 {
				panic("boom")
			}
			return i
		}}
	}
	Map(New(4), 0, jobs)
}

func TestPoolDefaults(t *testing.T) {
	if New(0).Workers() < 1 {
		t.Fatal("New(0) must select at least one worker")
	}
	if New(-3).Workers() < 1 {
		t.Fatal("negative worker count must clamp")
	}
	if New(5).Workers() != 5 {
		t.Fatal("explicit worker count ignored")
	}
	var p *Pool
	if p.Workers() < 1 {
		t.Fatal("nil pool must still report a usable worker count")
	}
}
