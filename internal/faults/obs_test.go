package faults

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/obs"
)

// TestObservedFaultEdgeZeroAllocs pins the fault layer's instrumentation
// point, recording through a Local, at zero allocations: the window edge's
// &obs.Event stays on the stack.
func TestObservedFaultEdgeZeroAllocs(t *testing.T) {
	l := obs.NewObserver(obs.NewTracer(1<<10), nil).Local()
	fl := &Link{sim: netsim.NewSim()}
	fl.Instrument(l, 5)
	edge := func() { fl.emitFault(obs.KindFaultBegin, "outage", 2, 17) }
	for i := 0; i < obs.LocalBatch; i++ {
		edge()
	}
	if n := testing.AllocsPerRun(1000, edge); n != 0 {
		t.Fatalf("fault window edge allocates %v per event, want 0", n)
	}
	l.Flush()
	if n := l.Tracer().Emitted(); n < obs.LocalBatch {
		t.Fatalf("tracer holds %d events, want at least %d", n, obs.LocalBatch)
	}
}
