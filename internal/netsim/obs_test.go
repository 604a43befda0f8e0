package netsim

import (
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/stats"
)

// TestObservedPacketPathZeroAllocs pins the link's and the sink's
// instrumentation points, recording through a Local, at zero allocations
// per call: each &obs.Event literal stays on its caller's stack.
func TestObservedPacketPathZeroAllocs(t *testing.T) {
	l := obs.NewObserver(obs.NewTracer(1<<10), obs.NewRegistry()).Local()
	lo, so := newLinkObs(l, 7), newSinkObs(l, 7)
	p := &Packet{Flow: 1, Bytes: 1400, SentAt: time.Millisecond}
	var comps [stats.NumDelayComps]time.Duration
	comps[stats.DelayQueue], comps[stats.DelayPropagate] = 3*time.Millisecond, 10*time.Millisecond
	now := 20 * time.Millisecond
	step := func() {
		lo.onEnqueue(now, p, 3, 4200)
		lo.onDrop(now, p, "queue")
		lo.onDeliver(now, p)
		so.onAttrib(now, p, comps, 13*time.Millisecond)
	}
	for i := 0; i < obs.LocalBatch; i++ {
		step()
	}
	if n := testing.AllocsPerRun(1000, step); n != 0 {
		t.Fatalf("observed packet path allocates %v per packet, want 0", n)
	}
	l.Flush()
}
