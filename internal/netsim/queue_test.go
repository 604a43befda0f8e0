package netsim

import (
	"testing"
	"time"
)

func pkt(flow int, seq int64, bytes int) *Packet {
	return &Packet{Flow: flow, Seq: seq, Bytes: bytes}
}

func TestDropTailFIFO(t *testing.T) {
	q := NewDropTail(10_000)
	for i := int64(0); i < 5; i++ {
		if !q.Enqueue(pkt(0, i, 1000), 0) {
			t.Fatalf("enqueue %d rejected", i)
		}
	}
	if q.Len() != 5 || q.Bytes() != 5000 {
		t.Fatalf("len=%d bytes=%d", q.Len(), q.Bytes())
	}
	for i := int64(0); i < 5; i++ {
		p := q.Dequeue(0)
		if p == nil || p.Seq != i {
			t.Fatalf("dequeue %d: got %+v", i, p)
		}
	}
	if q.Dequeue(0) != nil {
		t.Fatal("empty dequeue should be nil")
	}
}

func TestDropTailLimit(t *testing.T) {
	q := NewDropTail(2500)
	if !q.Enqueue(pkt(0, 0, 1000), 0) || !q.Enqueue(pkt(0, 1, 1000), 0) {
		t.Fatal("packets within limit rejected")
	}
	if q.Enqueue(pkt(0, 2, 1000), 0) {
		t.Fatal("over-limit packet accepted")
	}
	if q.Drops != 1 {
		t.Fatalf("Drops = %d, want 1", q.Drops)
	}
	q.Dequeue(0)
	if !q.Enqueue(pkt(0, 3, 1000), 0) {
		t.Fatal("space freed but enqueue rejected")
	}
}

func TestDropTailInvalidLimit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero limit should panic")
		}
	}()
	NewDropTail(0)
}

func TestREDBelowMinNeverDrops(t *testing.T) {
	q := NewRED(10_000, 30_000, 0.1, 1)
	for i := int64(0); i < 5; i++ {
		if !q.Enqueue(pkt(0, i, 1000), time.Duration(i)*time.Millisecond) {
			t.Fatalf("drop below min threshold at %d", i)
		}
	}
	if q.Drops != 0 {
		t.Fatalf("Drops = %d below min threshold", q.Drops)
	}
}

func TestREDHardLimit(t *testing.T) {
	q := NewRED(1000, 2000, 0.1, 1)
	// Hard limit = 4000 bytes.
	accepted := 0
	for i := int64(0); i < 10; i++ {
		if q.Enqueue(pkt(0, i, 1000), 0) {
			accepted++
		}
	}
	if q.Bytes() > q.HardLimitBytes {
		t.Fatalf("queue %d exceeds hard limit %d", q.Bytes(), q.HardLimitBytes)
	}
	if accepted > 4 {
		t.Fatalf("accepted %d packets past the hard limit", accepted)
	}
}

func TestREDEarlyDropsUnderSustainedLoad(t *testing.T) {
	q := NewRED(5_000, 15_000, 0.5, 42)
	// Hold the instantaneous queue around 12 KB so the average climbs
	// between min and max; early drops must appear.
	now := time.Duration(0)
	for i := int64(0); i < 5000; i++ {
		now += 100 * time.Microsecond
		q.Enqueue(pkt(0, i, 1000), now)
		if q.Bytes() > 12_000 {
			q.Dequeue(now)
			q.Dequeue(now)
		}
	}
	if q.EarlyDrops == 0 {
		t.Fatal("no early drops despite average above min threshold")
	}
}

func TestREDAverageDecaysWhenIdle(t *testing.T) {
	q := NewRED(5_000, 15_000, 0.1, 7)
	now := time.Duration(0)
	for i := int64(0); i < 2000; i++ {
		now += 50 * time.Microsecond
		q.Enqueue(pkt(0, i, 1000), now)
		if q.Bytes() > 10_000 {
			q.Dequeue(now)
		}
	}
	// Drain fully, then come back much later: the average must have decayed.
	for q.Dequeue(now) != nil {
	}
	before := q.avg
	now += 10 * time.Second
	q.Enqueue(pkt(0, 9999, 1000), now)
	if q.avg >= before {
		t.Fatalf("average did not decay across idle: %v -> %v", before, q.avg)
	}
}

func TestREDPaperParameters(t *testing.T) {
	q := PaperRED(1)
	if q.MinBytes != 375_000 || q.MaxBytes != 1_125_000 {
		t.Fatalf("paper thresholds wrong: min=%d max=%d", q.MinBytes, q.MaxBytes)
	}
	if q.MaxP != 0.10 {
		t.Fatalf("paper maxP = %v", q.MaxP)
	}
}

func TestREDInvalidParams(t *testing.T) {
	cases := []struct {
		min, max int
		p        float64
	}{
		{0, 100, 0.1}, {100, 100, 0.1}, {100, 200, 0}, {100, 200, 1.5},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewRED(%d,%d,%v) accepted", c.min, c.max, c.p)
				}
			}()
			NewRED(c.min, c.max, c.p, 1)
		}()
	}
}

func TestREDFIFOOrder(t *testing.T) {
	q := NewRED(100_000, 200_000, 0.1, 1)
	for i := int64(0); i < 10; i++ {
		q.Enqueue(pkt(0, i, 100), 0)
	}
	for i := int64(0); i < 10; i++ {
		p := q.Dequeue(0)
		if p == nil || p.Seq != i {
			t.Fatalf("RED not FIFO at %d", i)
		}
	}
}
