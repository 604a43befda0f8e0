package obs

import (
	"testing"
	"time"
)

func TestTracerRecordsInOrder(t *testing.T) {
	tr := NewTracer(8)
	for i := 0; i < 5; i++ {
		tr.Emit(Event{At: time.Duration(i) * time.Millisecond, Kind: KindVerusEpoch, V0: float64(i)})
	}
	got := tr.Snapshot()
	if len(got) != 5 {
		t.Fatalf("snapshot len = %d, want 5", len(got))
	}
	for i, e := range got {
		if e.Seq != uint64(i) || e.V0 != float64(i) {
			t.Fatalf("event %d = {Seq:%d V0:%v}, want {Seq:%d V0:%d}", i, e.Seq, e.V0, i, i)
		}
	}
	if tr.Emitted() != 5 || tr.Dropped() != 0 {
		t.Fatalf("emitted=%d dropped=%d, want 5, 0", tr.Emitted(), tr.Dropped())
	}
}

func TestTracerRingOverwritesOldest(t *testing.T) {
	// Capacities that divide nothing evenly, the degenerate one, and one
	// large enough that a wrong wrap is far from either end; each is
	// wrapped at least three times, and checked while filling and at every
	// step of the first wraps.
	for _, tc := range []struct{ capacity, emit int }{
		{4, 11}, {1, 4}, {3, 11}, {5, 17}, {1000, 3500},
	} {
		tr := NewTracer(tc.capacity)
		for i := 0; i < tc.emit; i++ {
			tr.Emit(Event{Kind: KindNetDeliver, V0: float64(i)})
			if i > 3*tc.capacity+2 && i != tc.emit-1 {
				continue
			}
			got := tr.Snapshot()
			held := i + 1
			if held > tc.capacity {
				held = tc.capacity
			}
			if len(got) != held {
				t.Fatalf("capacity %d after %d: snapshot len = %d, want %d", tc.capacity, i+1, len(got), held)
			}
			// The ring must hold the last events, oldest first.
			for j, e := range got {
				want := uint64(i + 1 - held + j)
				if e.Seq != want || e.V0 != float64(want) {
					t.Fatalf("capacity %d after %d: event %d = {Seq:%d V0:%v}, want Seq=V0=%d",
						tc.capacity, i+1, j, e.Seq, e.V0, want)
				}
			}
		}
		if tr.Emitted() != uint64(tc.emit) {
			t.Fatalf("capacity %d: emitted = %d, want %d", tc.capacity, tr.Emitted(), tc.emit)
		}
		if want := uint64(tc.emit - tc.capacity); tr.Dropped() != want {
			t.Fatalf("capacity %d: dropped = %d, want %d", tc.capacity, tr.Dropped(), want)
		}
	}
}

func TestTracerDefaultCapacity(t *testing.T) {
	tr := NewTracer(0)
	if tr.limit != DefaultTraceCapacity {
		t.Fatalf("limit = %d, want %d", tr.limit, DefaultTraceCapacity)
	}
	if cap(tr.buf) != DefaultTraceCapacity {
		t.Fatalf("cap(buf) = %d, want %d (slab must be pre-allocated)", cap(tr.buf), DefaultTraceCapacity)
	}
}

func TestNilTracerAndObserverAreInert(t *testing.T) {
	var tr *Tracer
	tr.Emit(Event{Kind: KindVerusEpoch})
	if tr.Snapshot() != nil || tr.Emitted() != 0 || tr.Dropped() != 0 {
		t.Fatal("nil tracer must report empty state")
	}

	var o *Observer
	o.Emit(&Event{Kind: KindVerusEpoch})
	if o.Tracer() != nil || o.Registry() != nil {
		t.Fatal("nil observer must expose nil halves")
	}
	o.Counter("x").Inc()
	o.Gauge("y").Set(1)
	o.Histogram("z", []float64{1}).Observe(0.5)
	o.RegisterCounter("w", new(Counter))
}

// The disabled path of the tracer and observer must not allocate: this is
// the zero-alloc half of the ≤2% hot-path overhead contract.
func TestDisabledPathZeroAlloc(t *testing.T) {
	var o *Observer
	e := Event{At: time.Second, Kind: KindVerusEpoch, V0: 1, V1: 2, V2: 3, V3: 4}
	if n := testing.AllocsPerRun(1000, func() { o.Emit(&e) }); n != 0 {
		t.Fatalf("nil Observer.Emit allocates %v per run, want 0", n)
	}

	var tr *Tracer
	if n := testing.AllocsPerRun(1000, func() { tr.Emit(e) }); n != 0 {
		t.Fatalf("nil Tracer.Emit allocates %v per run, want 0", n)
	}

	var c *Counter
	if n := testing.AllocsPerRun(1000, func() { c.Inc() }); n != 0 {
		t.Fatalf("nil Counter.Inc allocates %v per run, want 0", n)
	}

	// Detached instruments (resolved from a disabled observer once at setup)
	// also record without allocating.
	dc := o.Counter("detached")
	dh := o.Histogram("detached_h", DelayBuckets)
	if n := testing.AllocsPerRun(1000, func() { dc.Inc(); dh.Observe(0.05) }); n != 0 {
		t.Fatalf("detached instruments allocate %v per run, want 0", n)
	}
}

// The enabled steady-state tracer path must not allocate either — the ring
// slab is allocated once at construction.
func TestEnabledTracerSteadyStateZeroAlloc(t *testing.T) {
	tr := NewTracer(256)
	o := NewObserver(tr, nil)
	e := Event{At: time.Second, Kind: KindVerusEpoch, V0: 1, V1: 2, V2: 3, V3: 4}
	// Fill the ring first so append never grows it mid-measurement.
	for i := 0; i < 256; i++ {
		tr.Emit(e)
	}
	if n := testing.AllocsPerRun(1000, func() { o.Emit(&e) }); n != 0 {
		t.Fatalf("steady-state Emit allocates %v per run, want 0", n)
	}
}

func TestKindNames(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		name := k.String()
		if name == "" {
			t.Fatalf("kind %d has no name", k)
		}
		back, ok := kindByName[name]
		if !ok || back != k {
			t.Fatalf("kindByName[%q] = %v, %v; want %v, true", name, back, ok, k)
		}
	}
	if _, ok := kindByName["no.such.kind"]; ok {
		t.Fatal("kindByName accepted an unknown name")
	}
}
