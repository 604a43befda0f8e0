package obs

import (
	"bytes"
	"math"
	"sync"
	"testing"
	"time"
)

// record drives one recorder through a fixed mix of events and histogram
// observations, flushing every flushEvery events (never when 0) and at the
// end.
func record(o *Observer, n, flushEvery int) {
	h := o.Histogram("d_seconds", DelayBuckets)
	g := o.Histogram("g_seconds", []float64{0.5})
	for i := 0; i < n; i++ {
		v := float64(i%97) / 50
		o.Emit(&Event{At: time.Duration(i) * time.Millisecond, Kind: KindNetDeliver, Flow: int32(i % 4), V0: float64(i), V1: v})
		h.Observe(v)
		if i%7 == 0 {
			g.Observe(-v)
		}
		if flushEvery > 0 && i%flushEvery == flushEvery-1 {
			o.Flush()
		}
	}
	o.Flush()
}

// TestLocalMatchesShared: one goroutine recording through a Local and
// flushing leaves the tracer and the registry exactly as recording on the
// shared observer does — at batch boundaries, across ring wraps, with
// flushes between batches and with none.
func TestLocalMatchesShared(t *testing.T) {
	for _, tc := range []struct{ ring, n, flushEvery int }{
		{1000, 5 * LocalBatch, 0},
		{300, 5*LocalBatch + 17, 0},
		{LocalBatch / 2, 3*LocalBatch + 1, 0},
		{700, 2000, 100},
		{1 << 12, LocalBatch - 1, 1},
	} {
		shared := NewObserver(NewTracer(tc.ring), NewRegistry())
		record(shared, tc.n, tc.flushEvery)
		parent := NewObserver(NewTracer(tc.ring), NewRegistry())
		record(parent.Local(), tc.n, tc.flushEvery)

		want, got := shared.Tracer().Snapshot(), parent.Tracer().Snapshot()
		if len(got) != len(want) {
			t.Fatalf("%+v: ring holds %d events, want %d", tc, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%+v: slot %d = %+v, want %+v", tc, i, got[i], want[i])
			}
		}
		if a, b := parent.Tracer().Emitted(), shared.Tracer().Emitted(); a != b || a != uint64(tc.n) {
			t.Fatalf("%+v: emitted %d, want %d", tc, a, b)
		}
		if a, b := parent.Tracer().Dropped(), shared.Tracer().Dropped(); a != b {
			t.Fatalf("%+v: dropped %d, want %d", tc, a, b)
		}
		var wantProm, gotProm bytes.Buffer
		if err := WritePrometheus(&wantProm, shared.Registry()); err != nil {
			t.Fatal(err)
		}
		if err := WritePrometheus(&gotProm, parent.Registry()); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotProm.Bytes(), wantProm.Bytes()) {
			t.Fatalf("%+v: exposition differs:\n%s\nwant:\n%s", tc, gotProm.Bytes(), wantProm.Bytes())
		}
	}
}

// TestLocalHoldsUntilPublished: a Local's events reach the ring only when a
// batch fills or at Flush, and its observations reach the shared histogram
// only at Flush; counters pass straight through.
func TestLocalHoldsUntilPublished(t *testing.T) {
	o := NewObserver(NewTracer(1<<12), NewRegistry())
	l := o.Local()
	c := l.Counter("n_total")
	h := l.Histogram("d_seconds", DelayBuckets)
	if l.Histogram("d_seconds", DelayBuckets) != h {
		t.Fatal("a Local must hand out one shadow per histogram")
	}
	for i := 0; i < LocalBatch-1; i++ {
		l.Emit(&Event{Kind: KindNetEnqueue, V0: float64(i)})
		h.Observe(0.25)
		c.Inc()
	}
	if n := o.Tracer().Emitted(); n != 0 {
		t.Fatalf("tracer holds %d events before the batch filled, want 0", n)
	}
	if n := histCount(h); n != 0 {
		t.Fatalf("shared histogram counts %d before Flush, want 0", n)
	}
	if n := o.Counter("n_total").Value(); n != LocalBatch-1 {
		t.Fatalf("counter = %d, want %d: counters pass through", n, LocalBatch-1)
	}
	l.Emit(&Event{Kind: KindNetEnqueue})
	if n := o.Tracer().Emitted(); n != LocalBatch {
		t.Fatalf("tracer holds %d events after the batch filled, want %d", n, LocalBatch)
	}
	l.Emit(&Event{Kind: KindNetEnqueue})
	l.Flush()
	if n := o.Tracer().Emitted(); n != LocalBatch+1 {
		t.Fatalf("tracer holds %d events after Flush, want %d", n, LocalBatch+1)
	}
	if n, s := histCount(h), h.Sum(); n != LocalBatch-1 || s != 0.25*(LocalBatch-1) {
		t.Fatalf("shared histogram after Flush: count %d, sum %v, want %d and %v", n, s, LocalBatch-1, 0.25*(LocalBatch-1))
	}

	var nilObs *Observer
	if nilObs.Local() != nil {
		t.Fatal("a nil observer's Local must be nil")
	}
	nilObs.Flush()
	o.Flush() // no-op on the shared observer
}

// TestConcurrentLocalsAreExact: workers each record through their own Local
// of one observer at once. The shared histogram's count and sum are exact,
// and each worker's events sit in the ring in the order it emitted them.
func TestConcurrentLocalsAreExact(t *testing.T) {
	const workers, per = 8, 3*LocalBatch + 45
	o := NewObserver(NewTracer(workers*per), NewRegistry())
	shared := o.Histogram("v_seconds", []float64{1})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			l := o.Local()
			h := l.Histogram("v_seconds", []float64{1})
			for i := 0; i < per; i++ {
				l.Emit(&Event{Kind: KindNetDeliver, Flow: int32(w), V0: float64(i)})
				h.Observe(0.5)
				if i == per/2 {
					l.Flush()
				}
			}
			l.Flush()
		}(w)
	}
	wg.Wait()

	if n := histCount(shared); n != workers*per {
		t.Fatalf("histogram count = %d, want %d", n, workers*per)
	}
	if got, want := shared.Sum(), float64(workers*per)*0.5; got != want {
		t.Fatalf("histogram sum = %v, want exactly %v", got, want)
	}
	events := o.Tracer().Snapshot()
	if len(events) != workers*per {
		t.Fatalf("ring holds %d events, want %d", len(events), workers*per)
	}
	next := make([]int, workers)
	for i, e := range events {
		if e.Seq != uint64(i) {
			t.Fatalf("slot %d has Seq %d", i, e.Seq)
		}
		if e.V0 != float64(next[e.Flow]) {
			t.Fatalf("worker %d: event %v at slot %d, want %d next", e.Flow, e.V0, i, next[e.Flow])
		}
		next[e.Flow]++
	}
}

// TestLocalSteadyStateZeroAlloc: past its first batch, a Local's Emit,
// Observe and Flush allocate nothing.
func TestLocalSteadyStateZeroAlloc(t *testing.T) {
	l := NewObserver(NewTracer(1<<10), NewRegistry()).Local()
	h := l.Histogram("d_seconds", DelayBuckets)
	e := Event{At: time.Second, Kind: KindVerusEpoch, V0: 1, V1: 2, V2: 3, V3: 4}
	for i := 0; i < 2*LocalBatch; i++ {
		l.Emit(&e)
	}
	if n := testing.AllocsPerRun(4*LocalBatch, func() { l.Emit(&e) }); n != 0 {
		t.Fatalf("Local Emit allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(0.05) }); n != 0 {
		t.Fatalf("shadow Observe allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		l.Emit(&e)
		h.Observe(math.Inf(1))
		l.Flush()
	}); n != 0 {
		t.Fatalf("Flush allocates %v per run, want 0", n)
	}
}
