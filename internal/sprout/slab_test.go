package sprout

import (
	"bytes"
	"math/rand"
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/snap"
)

// saveSprout returns s's checkpoint bytes.
func saveSprout(t *testing.T, s *Sprout) []byte {
	t.Helper()
	e := snap.NewEncoder()
	s.Walk(snap.Save(e))
	blob, err := e.Encode(snap.Version)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestSlabMatchesNew drives element i of a NewN slab and a controller from
// New through one seeded script of ticks, each after a burst of acks under
// RTTs that sometimes show queueing, with the odd timeout, and requires the
// same allowance, send tag and belief after every tick and the same
// checkpoint bytes at the end.
func TestSlabMatchesNew(t *testing.T) {
	cfg := DefaultConfig()
	slab := NewN(cfg, 3)
	for i := range slab {
		a, b := &slab[i], New(cfg)
		rng := rand.New(rand.NewSource(int64(i) + 1))
		grew := false
		for tick := 0; tick < 2000; tick++ {
			now := time.Duration(tick) * cfg.Tick
			rtt := 20*time.Millisecond + time.Duration(rng.Intn(3))*30*time.Millisecond
			for n := rng.Intn(40); n > 0; n-- {
				ack := cc.AckSample{RTT: rtt, Bytes: 1400}
				a.OnAck(now, ack)
				b.OnAck(now, ack)
			}
			if rng.Intn(200) == 0 {
				a.OnTimeout(now)
				b.OnTimeout(now)
			}
			a.Tick(now)
			b.Tick(now)
			if a.Allowance(now, 3) != b.Allowance(now, 3) || a.SendTag() != b.SendTag() || !bytes.Equal(saveSprout(t, a), saveSprout(t, b)) {
				t.Fatalf("element %d, tick %d: allowance %d/%d, send tag %d/%d, or the beliefs differ (slab/New)", i, tick,
					a.Allowance(now, 3), b.Allowance(now, 3), a.SendTag(), b.SendTag())
			}
			grew = grew || a.SendTag() > 20
		}
		if !grew {
			t.Fatalf("element %d: script too weak, the window never passed 20", i)
		}
	}
}

// TestSlabRowsDisjoint writes every row of each slab element in turn, in
// place and by append past its end, and requires every other element's rows
// to be unchanged: each row is capped at its own end.
func TestSlabRowsDisjoint(t *testing.T) {
	cfg := DefaultConfig()
	slab := NewN(cfg, 5)
	rows := func(j int) [][]float64 { return [][]float64{slab[j].belief, slab[j].next, slab[j].ahead} }
	flat := func(j int) []float64 { return slices.Concat(rows(j)...) }
	for i := range slab {
		want := make([][]float64, len(slab))
		for j := range slab {
			want[j] = flat(j)
		}
		for _, r := range rows(i) {
			if len(r) != cfg.Bins || cap(r) != cfg.Bins {
				t.Fatalf("element %d: a row of len %d, cap %d; want both %d", i, len(r), cap(r), cfg.Bins)
			}
			for k := range r {
				r[k] = -1
			}
			_ = append(r, -1)
		}
		for j := range slab {
			if j != i && !slices.Equal(flat(j), want[j]) {
				t.Errorf("writing element %d's rows changed element %d's", i, j)
			}
		}
	}
}

// TestSlabAllocs pins what construction allocates once a Config's tables
// exist: NewN builds a thousand controllers in one slice and carves their
// rows from 24 chunks of 42 controllers' rows, and New, a slab of one, still
// allocates twice.
func TestSlabAllocs(t *testing.T) {
	cfg := DefaultConfig()
	New(cfg)
	per := rowsChunk / (3 * 8 * cfg.Bins)
	want := 1 + (1000+per-1)/per // the slice and a chunk per per controllers' rows
	if a := allocsPerRun(10, func() { NewN(cfg, 1000) }); a > float64(want) {
		t.Errorf("NewN(cfg, 1000): %v allocs, want at most %d", a, want)
	}
	if a := allocsPerRun(10, func() { New(cfg) }); a != 2 {
		t.Errorf("New: %v allocs, want 2", a)
	}
}

// allocsPerRun is testing.AllocsPerRun with the collector off: under the race
// detector a collection that falls inside the count allocates too.
func allocsPerRun(runs int, f func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(runs, f)
}
