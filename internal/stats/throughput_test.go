package stats

import (
	"math"
	"testing"
	"time"
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
