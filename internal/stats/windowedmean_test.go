package stats

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/snap"
)

// TestWindowedMeanWalkLayout: the per-window means, and a snapshot that
// keeps the v3 layout — every window's sum as one counted list, then every
// window's count as another — however the windows are held in memory. A load
// restores the series exactly and refuses a snapshot whose two lists differ
// in length.
func TestWindowedMeanWalkLayout(t *testing.T) {
	m := NewWindowedMean(time.Second)
	m.Add(-time.Millisecond, 99) // before the series: ignored
	m.Add(100*time.Millisecond, 1)
	m.Add(900*time.Millisecond, 2)
	m.Add(3500*time.Millisecond, 7) // windows 1 and 2 stay empty
	if got, want := m.Means(), []float64{1.5, 0, 0, 7}; !slices.Equal(got, want) {
		t.Fatalf("Means = %v, want %v", got, want)
	}

	layout := func(sums []float64, counts []int64) []byte {
		e := snap.NewEncoder()
		w := snap.Save(e)
		w.Tag("wmean")
		w.SameDur(time.Second, "window")
		w.F64s(&sums)
		w.I64s(&counts)
		blob, err := e.Encode(snap.Version)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	e := snap.NewEncoder()
	m.Walk(snap.Save(e))
	blob, err := e.Encode(snap.Version)
	if err != nil {
		t.Fatal(err)
	}
	if want := layout([]float64{3, 0, 0, 7}, []int64{2, 0, 0, 1}); !bytes.Equal(blob, want) {
		t.Fatalf("Walk wrote\n%x\nthe layout is\n%x", blob, want)
	}

	load := func(blob []byte) (*WindowedMean, error) {
		d, err := snap.Decode(blob, snap.Version)
		if err != nil {
			t.Fatal(err)
		}
		got := NewWindowedMean(time.Second)
		got.Walk(snap.Load(d))
		return got, d.Done()
	}
	got, err := load(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Means(), m.Means()) {
		t.Fatalf("loaded Means = %v, saved %v", got.Means(), m.Means())
	}
	got.Add(3900*time.Millisecond, 1)
	m.Add(3900*time.Millisecond, 1)
	if !slices.Equal(got.Means(), m.Means()) {
		t.Fatalf("after one more sample, loaded Means = %v, saved %v", got.Means(), m.Means())
	}

	if _, err := load(layout([]float64{1, 2, 3}, []int64{1, 1})); err == nil || !strings.Contains(err.Error(), "3 sums but 2 counts") {
		t.Fatalf("3 sums and 2 counts loaded with error %v", err)
	}
}
