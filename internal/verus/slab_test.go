package verus

import (
	"bytes"
	"math/rand"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/snap"
)

// saveVerus returns v's checkpoint bytes.
func saveVerus(t *testing.T, v *Verus) []byte {
	t.Helper()
	e := snap.NewEncoder()
	v.Walk(snap.Save(e))
	blob, err := e.Encode(snap.Version)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestSlabMatchesNew drives element i of a NewN slab and a controller from
// New through one seeded script of sends, acks under window-dependent
// jittered delays, losses, timeouts and epoch ticks, and requires the same
// allowance, send tag and window after every event and the same checkpoint
// bytes at the end. The script grows the delay profile past its inline
// knots, so both the inline and the heap spline backing are covered.
func TestSlabMatchesNew(t *testing.T) {
	cfg := DefaultConfig()
	slab := NewN(cfg, 3)
	for i := range slab {
		a, b := &slab[i], New(cfg)
		rng := rand.New(rand.NewSource(int64(i) + 1))
		var now, nextTick time.Duration
		seq, acked := int64(0), int64(-1)
		maxKnots := 0
		for step := 0; step < 40_000; step++ {
			now += time.Duration(rng.Int63n(int64(time.Millisecond)))
			for ; nextTick <= now; nextTick += cfg.Epoch {
				a.Tick(nextTick)
				b.Tick(nextTick)
			}
			inflight := int(seq - 1 - acked)
			switch r := rng.Intn(1000); {
			case r < 450:
				if a.Allowance(now, inflight) > 0 {
					a.OnSend(now, seq, inflight)
					b.OnSend(now, seq, inflight)
					seq++
				}
			case r < 990:
				if acked >= seq-1 {
					break
				}
				acked++
				tag := a.SendTag()
				rtt := 20*time.Millisecond + time.Duration(tag)*200*time.Microsecond +
					time.Duration(rng.Int63n(int64(5*time.Millisecond)))
				ack := cc.AckSample{Seq: acked, RTT: rtt, SentWindow: tag, Inflight: int(seq - 1 - acked), Bytes: 1400}
				a.OnAck(now, ack)
				b.OnAck(now, ack)
			case r < 998:
				loss := cc.LossEvent{Seq: acked, SentWindow: a.SendTag(), Inflight: inflight}
				a.OnLoss(now, loss)
				b.OnLoss(now, loss)
			default:
				a.OnTimeout(now)
				b.OnTimeout(now)
			}
			inflight = int(seq - 1 - acked)
			if a.Allowance(now, inflight) != b.Allowance(now, inflight) || a.SendTag() != b.SendTag() || a.Window() != b.Window() {
				t.Fatalf("element %d, step %d: allowance %d/%d, send tag %d/%d, window %v/%v (slab/New)", i, step,
					a.Allowance(now, inflight), b.Allowance(now, inflight), a.SendTag(), b.SendTag(), a.Window(), b.Window())
			}
			maxKnots = max(maxKnots, a.profile.numPoints())
		}
		epochs, losses, timeouts, refits := a.Stats()
		t.Logf("element %d: %d sent, %d epochs, %d losses, %d timeouts, %d refits, at most %d knots", i, seq, epochs, losses, timeouts, refits, maxKnots)
		if epochs == 0 || losses == 0 || timeouts == 0 || refits == 0 || maxKnots <= firstKnots {
			t.Fatalf("element %d: script too weak; want epochs, losses, timeouts and refits, and more than %d knots", i, firstKnots)
		}
		if !bytes.Equal(saveVerus(t, a), saveVerus(t, b)) {
			t.Errorf("element %d: checkpoint bytes differ from New's", i)
		}
	}
}

// TestSlabAllocs pins what construction allocates: NewN builds a thousand
// controllers in one allocation, and New, a slab of one, still allocates
// once.
func TestSlabAllocs(t *testing.T) {
	cfg := DefaultConfig()
	if a := allocsPerRun(10, func() { NewN(cfg, 1000) }); a > 1 {
		t.Errorf("NewN(cfg, 1000): %v allocs, want at most 1", a)
	}
	if a := allocsPerRun(10, func() { New(cfg) }); a != 1 {
		t.Errorf("New: %v allocs, want 1", a)
	}
}

// allocsPerRun is testing.AllocsPerRun with the collector off: under the race
// detector a collection that falls inside the count allocates too.
func allocsPerRun(runs int, f func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(runs, f)
}
