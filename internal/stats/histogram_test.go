package stats

import (
	"math"
	"testing"
)

func TestLogHistogramBucketing(t *testing.T) {
	h := NewLogHistogram(1, 10, 4) // edges 1, 10, 100, 1000, 10000
	h.Add(5)                       // bucket 0
	h.Add(50)                      // bucket 1
	h.Add(500)                     // bucket 2
	h.Add(5000)                    // bucket 3
	h.Add(1e9)                     // clamps to bucket 3
	h.Add(0.5)                     // underflow
	if h.total != 6 {
		t.Fatalf("total = %d, want 6", h.total)
	}
	centers, dens := h.PDF()
	if len(centers) != 4 {
		t.Fatalf("non-empty buckets = %d, want 4", len(centers))
	}
	for i := 1; i < len(centers); i++ {
		if centers[i] <= centers[i-1] {
			t.Fatal("PDF centers not increasing")
		}
	}
	// Bucket 3 holds 2 of 6 samples over width 10000-1000.
	wantDensity := 2.0 / 6.0 / 9000.0
	if math.Abs(dens[3]-wantDensity) > 1e-15 {
		t.Fatalf("density[3] = %v, want %v", dens[3], wantDensity)
	}
}

func TestLogHistogramEdges(t *testing.T) {
	h := NewLogHistogram(2, 2, 8)
	if got := h.BucketEdge(0); got != 2 {
		t.Fatalf("edge 0 = %v, want 2", got)
	}
	if got := h.BucketEdge(3); math.Abs(got-16) > 1e-12 {
		t.Fatalf("edge 3 = %v, want 16", got)
	}
}

func TestLogHistogramEmptyPDF(t *testing.T) {
	h := NewLogHistogram(1, 2, 4)
	c, d := h.PDF()
	if c != nil || d != nil {
		t.Fatal("empty histogram should return nil PDF")
	}
}

func TestLogHistogramPDFIntegratesToCapturedFraction(t *testing.T) {
	h := NewLogHistogram(1, 2, 20)
	for i := 1; i <= 1000; i++ {
		h.Add(float64(i))
	}
	centers, dens := h.PDF()
	var integral float64
	for i := range centers {
		// Width of the bucket the center belongs to.
		k := int(math.Log(centers[i]) / math.Log(2))
		lo := h.BucketEdge(k)
		hi := h.BucketEdge(k + 1)
		integral += dens[i] * (hi - lo)
	}
	if math.Abs(integral-1) > 1e-9 {
		t.Fatalf("PDF should integrate to 1 (no underflow), got %v", integral)
	}
}

func TestLogHistogramBucketFractions(t *testing.T) {
	h := NewLogHistogram(1, 10, 3)
	h.Add(5)
	h.Add(50)
	_, dens := h.PDF()
	for k, d := range dens {
		if got := d * (h.BucketEdge(k+1) - h.BucketEdge(k)); math.Abs(got-0.5) > 1e-12 {
			t.Fatalf("bucket %d holds fraction %v, want 0.5", k, got)
		}
	}
}

func TestLogHistogramInvalidParamsPanics(t *testing.T) {
	cases := []struct {
		min, base float64
		n         int
	}{
		{0, 2, 4}, {1, 1, 4}, {1, 2, 0},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewLogHistogram(%v,%v,%d) did not panic", c.min, c.base, c.n)
				}
			}()
			NewLogHistogram(c.min, c.base, c.n)
		}()
	}
}
