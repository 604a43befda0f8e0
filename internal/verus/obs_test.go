package verus

import (
	"testing"
	"time"

	"repro/internal/obs"
)

// TestObservedControllerZeroAllocs pins Verus's instrumentation points,
// recording through a Local, at zero allocations: epochs and refits (Tick),
// state transitions, timeouts, timeout-epoch edges and relearns all build
// their &obs.Event on the stack.
func TestObservedControllerZeroAllocs(t *testing.T) {
	v := primedVerusCfg(t, ResilientConfig())
	l := obs.NewObserver(obs.NewTracer(1<<10), obs.NewRegistry()).Local()
	v.Observe(l, 9, 0)
	now := time.Duration(0)
	step := func() {
		for i := 0; i < 300; i++ {
			now += 5 * time.Millisecond
			ack(v, msd(20), 20)
			v.Tick(now)
		}
		v.emitState(now)
		v.OnTimeout(now)
		v.OnTimeout(now)
		v.OnTimeout(now)
		ack(v, msd(20), 1)
	}
	step()
	step()
	if n := testing.AllocsPerRun(20, step); n != 0 {
		t.Fatalf("observed controller allocates %v per step, want 0", n)
	}
	l.Flush()
	kinds := map[obs.Kind]bool{}
	for _, e := range l.Tracer().Snapshot() {
		kinds[e.Kind] = true
	}
	for _, k := range []obs.Kind{obs.KindVerusEpoch, obs.KindVerusRefit, obs.KindVerusState,
		obs.KindVerusTimeout, obs.KindVerusTimeoutEpoch, obs.KindVerusRelearn} {
		if !kinds[k] {
			t.Errorf("no %v event: the step does not reach that site", k)
		}
	}
}
