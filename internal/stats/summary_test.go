package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestSummaryBasics(t *testing.T) {
	s := NewSummary(4)
	for _, v := range []float64{4, 1, 3, 2} {
		s.Add(v)
	}
	if s.N() != 4 {
		t.Fatalf("N = %d, want 4", s.N())
	}
	if got := s.Mean(); got != 2.5 {
		t.Errorf("Mean = %v, want 2.5", got)
	}
	if got := s.Min(); got != 1 {
		t.Errorf("Min = %v, want 1", got)
	}
	if got := s.Max(); got != 4 {
		t.Errorf("Max = %v, want 4", got)
	}
	if got := s.Median(); got != 2.5 {
		t.Errorf("Median = %v, want 2.5", got)
	}
	want := math.Sqrt(1.25) // population stddev of 1..4
	if got := stddev(s); math.Abs(got-want) > 1e-12 {
		t.Errorf("stddev = %v, want %v", got, want)
	}
}

func TestSummaryEmpty(t *testing.T) {
	s := NewSummary(0)
	if s.Mean() != 0 || stddev(s) != 0 || s.Percentile(50) != 0 {
		t.Error("empty summary should report zeros")
	}
	if !math.IsInf(s.Min(), 1) || !math.IsInf(s.Max(), -1) {
		t.Error("empty summary min/max should be infinities")
	}
}

func TestSummaryAddAfterPercentile(t *testing.T) {
	s := NewSummary(0)
	s.Add(10)
	s.Add(20)
	_ = s.Median() // forces sort
	s.Add(5)
	if got := s.Min(); got != 5 {
		t.Fatalf("Min after late Add = %v, want 5", got)
	}
	if got := s.Mean(); math.Abs(got-35.0/3) > 1e-12 {
		t.Fatalf("Mean = %v", got)
	}
}

func TestSummaryPercentileInterpolation(t *testing.T) {
	s := NewSummary(0)
	for _, v := range []float64{0, 10} {
		s.Add(v)
	}
	if got := s.Percentile(25); got != 2.5 {
		t.Fatalf("P25 of {0,10} = %v, want 2.5", got)
	}
	if got := s.Percentile(0); got != 0 {
		t.Fatalf("P0 = %v, want 0", got)
	}
	if got := s.Percentile(100); got != 10 {
		t.Fatalf("P100 = %v, want 10", got)
	}
}

// TestSummaryPercentileNaNRank: a NaN percentile has no rank, so the query
// answers NaN and leaves the samples as they were, where int(math.Floor(NaN))
// used to index the samples and panic.
func TestSummaryPercentileNaNRank(t *testing.T) {
	s := NewSummary(0)
	for i := 0; i < 10; i++ {
		s.Add(float64(10 - i))
	}
	if got := s.Percentile(math.NaN()); !math.IsNaN(got) {
		t.Fatalf("Percentile(NaN) = %v, want NaN", got)
	}
	for i, v := range s.samples {
		if v != float64(10-i) {
			t.Fatalf("Percentile(NaN) moved sample %d to %v", i, v)
		}
	}
	if got := NewSummary(0).Percentile(math.NaN()); got != 0 {
		t.Fatalf("Percentile(NaN) with no samples = %v, want 0", got)
	}
}

// Property: percentiles are monotone in p and bounded by min/max.
func TestSummaryPercentileMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		s := NewSummary(len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			s.Add(v)
		}
		if s.N() == 0 {
			return true
		}
		prev := s.Min()
		for p := 0.0; p <= 100; p += 7 {
			v := s.Percentile(p)
			if v < prev-1e-9 {
				return false
			}
			prev = v
		}
		return s.Percentile(100) == s.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the median of a sorted copy matches Percentile(50).
func TestSummaryMedianAgainstSort(t *testing.T) {
	f := func(raw []float64) bool {
		var clean []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				clean = append(clean, v)
			}
		}
		if len(clean) == 0 {
			return true
		}
		s := NewSummary(len(clean))
		for _, v := range clean {
			s.Add(v)
		}
		sort.Float64s(clean)
		n := len(clean)
		var want float64
		if n%2 == 1 {
			want = clean[n/2]
		} else {
			want = (clean[n/2-1] + clean[n/2]) / 2
		}
		diff := math.Abs(s.Median() - want)
		scale := 1 + math.Abs(want)
		return diff <= 1e-9*scale
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// stddev returns the population standard deviation of s's samples, or 0
// with fewer than two.
func stddev(s *Summary) float64 {
	n := float64(len(s.samples))
	if n < 2 {
		return 0
	}
	mean := s.sum / n
	v := s.sumSq/n - mean*mean
	if v < 0 { // guard tiny negative from rounding
		v = 0
	}
	return math.Sqrt(v)
}
