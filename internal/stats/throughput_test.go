package stats

import (
	"bytes"
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/snap"
)

func TestThroughputSeriesWindows(t *testing.T) {
	s := NewThroughputSeries(time.Second)
	s.Add(100*time.Millisecond, 125_000) // 1 Mbit in window 0
	s.Add(1500*time.Millisecond, 250_000)
	s.Add(1600*time.Millisecond, 0)
	mbps := s.Mbps()
	if len(mbps) != 2 {
		t.Fatalf("windows = %d, want 2", len(mbps))
	}
	if math.Abs(mbps[0]-1.0) > 1e-12 {
		t.Errorf("window 0 = %v Mbps, want 1", mbps[0])
	}
	if math.Abs(mbps[1]-2.0) > 1e-12 {
		t.Errorf("window 1 = %v Mbps, want 2", mbps[1])
	}
	if math.Abs(meanMbps(s)-1.5) > 1e-12 {
		t.Errorf("mean = %v, want 1.5", meanMbps(s))
	}
	if s.TotalBytes() != 375_000 {
		t.Errorf("total = %d, want 375000", s.TotalBytes())
	}
}

func TestThroughputSeriesOutOfOrder(t *testing.T) {
	s := NewThroughputSeries(100 * time.Millisecond)
	s.Add(950*time.Millisecond, 10)
	s.Add(50*time.Millisecond, 20)
	if len(s.bytes) != 10 {
		t.Fatalf("windows = %d, want 10", len(s.bytes))
	}
	mbps := s.Mbps()
	if mbps[0] <= 0 || mbps[9] <= 0 {
		t.Fatal("out-of-order adds lost")
	}
	for i := 1; i < 9; i++ {
		if mbps[i] != 0 {
			t.Fatalf("window %d should be empty", i)
		}
	}
}

func TestThroughputSeriesNegativeTimeIgnored(t *testing.T) {
	s := NewThroughputSeries(time.Second)
	s.Add(-time.Second, 100)
	if len(s.bytes) != 0 || s.TotalBytes() != 0 {
		t.Fatal("negative-time sample should be dropped")
	}
}

func TestThroughputSeriesEmptyMean(t *testing.T) {
	s := NewThroughputSeries(time.Second)
	if meanMbps(s) != 0 {
		t.Fatal("empty mean should be 0")
	}
}

// meanMbps returns s's average throughput across its windows, or 0 if
// nothing was recorded.
func meanMbps(s *ThroughputSeries) float64 {
	if len(s.bytes) == 0 {
		return 0
	}
	return float64(s.TotalBytes()) * 8 / (float64(len(s.bytes)) * s.window.Seconds()) / 1e6
}

func TestThroughputSeriesInvalidWindowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero window did not panic")
		}
	}()
	NewThroughputSeries(0)
}

// TestSeriesFirstWindowsAllocs: a fresh ThroughputSeries' and WindowedMean's
// first firstWindows windows, opened in any order, allocate nothing — they
// are the series' own inline windows (grown from empty they cost three
// allocations per series) — and the window past them spills by append, one
// allocation per series.
func TestSeriesFirstWindowsAllocs(t *testing.T) {
	const runs = 10
	tps := make([]*ThroughputSeries, runs+1)
	wms := make([]*WindowedMean, runs+1)
	for i := range tps {
		tps[i], wms[i] = NewThroughputSeries(time.Second), NewWindowedMean(time.Second)
	}
	at := [...]time.Duration{1200 * time.Millisecond, 0, 3900 * time.Millisecond, 2 * time.Second}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		tp, wm := tps[next], wms[next]
		next++
		for _, when := range at {
			tp.Add(when, 1400)
			wm.Add(when, 0.05)
		}
	})
	if allocs != 0 {
		t.Errorf("a fresh pair of series' first %d windows: %v allocs, want 0", len(at), allocs)
	}
	for i := range tps {
		if len(tps[i].bytes) != len(at) || len(wms[i].cells) != len(at) || tps[i].TotalBytes() != 1400*int64(len(at)) {
			t.Fatalf("series %d: %d and %d windows, %d bytes; want %d windows of 1400", i, len(tps[i].bytes), len(wms[i].cells), tps[i].TotalBytes(), len(at))
		}
	}
	next = 0
	spill := testing.AllocsPerRun(runs, func() {
		tps[next].Add(4*time.Second, 1400)
		wms[next].Add(4*time.Second, 0.05)
		next++
	})
	if spill != 2 {
		t.Errorf("the window past %d: %v allocs for the pair, want 2", len(at), spill)
	}
}

// TestSeriesWalkRoundTrip: save → load → save is byte-equal for a
// ThroughputSeries and a WindowedMean with 2 windows (inline) and with 9
// (spilled), and the loaded series report what the saved ones do.
func TestSeriesWalkRoundTrip(t *testing.T) {
	save := func(w snap.Walkable) []byte {
		e := snap.NewEncoder()
		w.Walk(snap.Save(e))
		blob, err := e.Encode(snap.Version)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	load := func(w snap.Walkable, blob []byte) {
		d, err := snap.Decode(blob, snap.Version)
		if err != nil {
			t.Fatal(err)
		}
		w.Walk(snap.Load(d))
		if err := d.Done(); err != nil {
			t.Fatal(err)
		}
	}
	for _, windows := range []int{2, 9} {
		tp, wm := NewThroughputSeries(time.Second), NewWindowedMean(time.Second)
		for i := 0; i < windows; i++ {
			at := time.Duration(i)*time.Second + 300*time.Millisecond
			tp.Add(at, 1000+i)
			wm.Add(at, 0.01*float64(i+1))
			wm.Add(at, 0.3)
		}
		tpBlob, wmBlob := save(tp), save(wm)
		tp2, wm2 := NewThroughputSeries(time.Second), NewWindowedMean(time.Second)
		load(tp2, tpBlob)
		load(wm2, wmBlob)
		if !bytes.Equal(save(tp2), tpBlob) || !bytes.Equal(save(wm2), wmBlob) {
			t.Fatalf("%d windows: save → load → save differs", windows)
		}
		if !slices.Equal(tp2.Mbps(), tp.Mbps()) || !slices.Equal(wm2.Means(), wm.Means()) {
			t.Fatalf("%d windows: the loaded series report differently", windows)
		}
		inline := windows <= firstWindows
		if (&tp2.bytes[0] == &tp2.first[0]) != inline || (&wm2.cells[0] == &wm2.first[0]) != inline {
			t.Errorf("%d windows: loaded into the inline windows %v and %v, want %v", windows, &tp2.bytes[0] == &tp2.first[0], &wm2.cells[0] == &wm2.first[0], inline)
		}
	}
}
