package obs

import (
	"bytes"
	"math"
	"sort"
	"sync"
	"testing"
)

// histCount returns the number of observations: the sum of the buckets.
// On a Local's shadow it reads the shared histogram, as Sum does.
func histCount(h *Histogram) int64 {
	if h == nil {
		return 0
	}
	if h.local.shared != nil {
		h = h.local.shared
	}
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("reqs_total") != c {
		t.Fatal("Counter must return the same instrument for the same name")
	}

	g := r.Gauge("window")
	g.Set(17.5)
	if got := g.Value(); got != 17.5 {
		t.Fatalf("gauge = %v, want 17.5", got)
	}
	g.Set(-3)
	if got := g.Value(); got != -3 {
		t.Fatalf("gauge = %v, want -3", got)
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("requesting a counter name as a gauge must panic")
		}
	}()
	r.Gauge("x")
}

func TestRegisterCounterAdoptsExternal(t *testing.T) {
	r := NewRegistry()
	var owned Counter
	owned.Add(7)
	r.RegisterCounter("adopted_total", &owned)
	if got := r.Counter("adopted_total"); got != &owned {
		t.Fatal("registry must hand back the adopted counter")
	}
	owned.Inc()
	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].Value != 8 {
		t.Fatalf("snapshot = %+v, want one sample with value 8", snap)
	}
}

func TestHistogramBucketsAndFixedPointSum(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("delay_seconds", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 50} {
		h.Observe(v)
	}
	if histCount(h) != 5 {
		t.Fatalf("count = %d, want 5", histCount(h))
	}
	if got, want := h.Sum(), 52.65; math.Abs(got-want) > 1e-9 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	snap := r.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot len = %d, want 1", len(snap))
	}
	s := snap[0]
	// Cumulative buckets: <=0.1 holds {0.05, 0.1}, <=1 adds {0.5}, <=10
	// adds {2}; 50 lands in the implicit +Inf bucket (Count).
	want := []int64{2, 3, 4}
	for i, w := range want {
		if s.Buckets[i] != w {
			t.Fatalf("bucket[%d] = %d, want %d (all: %v)", i, s.Buckets[i], w, s.Buckets)
		}
	}

	// Observe's scan must pick the bucket sort.SearchFloat64s picks: on
	// every bound, between them, off both ends, and for NaN, which is below
	// no bound and so belongs to +Inf.
	bounds := DelayBuckets
	values := []float64{math.Inf(-1), -1, 0, bounds[0] / 2, bounds[len(bounds)-1] * 2, math.Inf(1), math.NaN()}
	for _, b := range bounds {
		values = append(values, b, math.Nextafter(b, 0), math.Nextafter(b, math.Inf(1)))
	}
	for _, v := range values {
		h := newHistogram(bounds)
		h.Observe(v)
		wantBucket := sort.SearchFloat64s(bounds, v)
		for i := range h.counts {
			if got := h.counts[i].Load(); (got == 1) != (i == wantBucket) || got > 1 {
				t.Fatalf("Observe(%v): bucket %d holds %d, want the one observation in bucket %d", v, i, got, wantBucket)
			}
		}
		if histCount(h) != 1 {
			t.Fatalf("Observe(%v): count = %d, want 1", v, histCount(h))
		}
	}

	// An observation the fixed-point sum cannot hold turns the sum into
	// what a float sum would read from then on, whether recorded on the
	// histogram or on a Local's shadow and flushed, and the exposition
	// carries it through a round trip.
	const edge = 0x1p63 / sumScale // the first value beyond the fixed-point range
	for _, tc := range []struct {
		name string
		obs  []float64
		want float64
	}{
		{"NaN", []float64{0.5, math.NaN(), 2}, math.NaN()},
		{"+Inf", []float64{0.5, math.Inf(1), 2}, math.Inf(1)},
		{"-Inf", []float64{0.5, math.Inf(-1), 2}, math.Inf(-1)},
		{"both infinities", []float64{math.Inf(1), 0.5, math.Inf(-1)}, math.NaN()},
		{"1e10", []float64{0.5, 1e10}, math.Inf(1)},
		{"-1e10", []float64{0.5, -1e10}, math.Inf(-1)},
		{"overflow both ways", []float64{1e10, -1e10}, math.NaN()},
		{"at the edge", []float64{edge}, math.Inf(1)},
		{"below the edge", []float64{9e9, -9e9, 0.5}, 0.5},
	} {
		for _, local := range []bool{false, true} {
			name := tc.name
			o := NewObserver(nil, NewRegistry())
			if local {
				name += " through a Local"
				o = o.Local()
			}
			h := o.Histogram("h", DelayBuckets)
			for _, v := range tc.obs {
				h.Observe(v)
			}
			o.Flush()
			same := func(got float64) bool {
				return got == tc.want || math.IsNaN(got) && math.IsNaN(tc.want)
			}
			if got := h.Sum(); !same(got) {
				t.Errorf("%s: Sum() = %v, want %v", name, got, tc.want)
			}
			if histCount(h) != int64(len(tc.obs)) {
				t.Errorf("%s: count = %d, want %d", name, histCount(h), len(tc.obs))
			}
			var b bytes.Buffer
			if err := WritePrometheus(&b, o.Registry()); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			pm, err := ParsePrometheus(&b)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got := pm.Values["h_sum"]; !same(got) {
				t.Errorf("%s: exposition round trip reads h_sum = %v, want %v", name, got, tc.want)
			}
		}
	}
}

func TestHistogramBadBoundsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-ascending bounds must panic")
		}
	}()
	newHistogram([]float64{1, 1})
}

func TestSnapshotSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter("zeta_total")
	r.Gauge("alpha")
	r.Counter("mid_total")
	snap := r.Snapshot()
	names := make([]string, len(snap))
	for i, s := range snap {
		names[i] = s.Name
	}
	want := []string{"alpha", "mid_total", "zeta_total"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("snapshot order = %v, want %v", names, want)
		}
	}
}

func TestConcurrentRecordingIsExact(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n_total")
	h := r.Histogram("v", []float64{10})
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(0.5)
			}
		}()
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*per)
	}
	if histCount(h) != workers*per {
		t.Fatalf("histogram count = %d, want %d", histCount(h), workers*per)
	}
	// histCount is the sum of the buckets, which is what the exposition
	// writes as the +Inf bucket.
	if smp := r.Snapshot()[1]; smp.Count != histCount(h) || smp.Buckets[0] != histCount(h) {
		t.Fatalf("snapshot count = %d, buckets %v, want count = %d in both", smp.Count, smp.Buckets, histCount(h))
	}
	// Fixed-point accumulation: the sum is exact regardless of interleaving.
	if got, want := h.Sum(), float64(workers*per)*0.5; got != want {
		t.Fatalf("histogram sum = %v, want exactly %v", got, want)
	}
}

func TestLabeled(t *testing.T) {
	if got := Labeled("x_total"); got != "x_total" {
		t.Fatalf("Labeled no-pairs = %q", got)
	}
	got := Labeled("x_total", "flow", "0", "run", "123")
	if want := `x_total{flow="0",run="123"}`; got != want {
		t.Fatalf("Labeled = %q, want %q", got, want)
	}
	esc := Labeled("x", "s", "a\"b\\c\nd")
	if want := `x{s="a\"b\\c\nd"}`; esc != want {
		t.Fatalf("Labeled escape = %q, want %q", esc, want)
	}
}

func TestObserverWithRegistryResolvesShared(t *testing.T) {
	r := NewRegistry()
	o := NewObserver(nil, r)
	a := o.Counter("shared_total")
	b := o.Counter("shared_total")
	if a != b {
		t.Fatal("enabled observer must resolve to the shared registry instrument")
	}
	a.Inc()
	if r.Counter("shared_total").Value() != 1 {
		t.Fatal("record must be visible through the registry")
	}
}
