package verus

import (
	"bytes"
	"testing"

	"repro/internal/snap"
)

// profileLayout encodes a profile walk as the v3 layout spells it out: the
// knots as three counted lists (windows, delays, stamps), maxW, the dirty and
// fitted flags, and — when fitted — the inputs of the last fit as two more
// counted lists.
func profileLayout(t *testing.T, wins []int, delays []float64, stamps []int64, maxW int, dirty bool, xs, ys []float64) []byte {
	t.Helper()
	e := snap.NewEncoder()
	w := snap.Save(e)
	w.Tag("profile")
	w.Ints(&wins)
	w.F64s(&delays)
	w.I64s(&stamps)
	w.Int(&maxW)
	w.Bool(&dirty)
	fitted := xs != nil
	w.Bool(&fitted)
	if fitted {
		w.F64s(&xs)
		w.F64s(&ys)
	}
	blob, err := e.Encode(snap.Version)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func saveProfile(t *testing.T, p *delayProfile) []byte {
	t.Helper()
	e := snap.NewEncoder()
	p.walk(snap.Save(e))
	blob, err := e.Encode(snap.Version)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func loadProfile(t *testing.T, blob []byte) *delayProfile {
	t.Helper()
	d, err := snap.Decode(blob, snap.Version)
	if err != nil {
		t.Fatal(err)
	}
	p := &delayProfile{}
	p.walk(snap.Load(d))
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestProfileWalkLayout pins the profile's snapshot bytes across the knot
// store's representation: with 3 knots (inline) and 12 (spilled), fitted
// and clean or fitted and dirty, a save writes exactly the v3 layout — the
// fit inputs read off the spline's rows, not the knots a dirty profile has
// moved on to — and save → load → save is byte-equal. The loaded profile
// evaluates the same curve bit for bit and keeps learning like the original.
func TestProfileWalkLayout(t *testing.T) {
	for _, n := range []int{3, 12} {
		for _, dirty := range []bool{false, true} {
			p := &delayProfile{staleAfter: 40}
			var wins []int
			var delays []float64
			var stamps []int64
			for i := 1; i <= n; i++ {
				w, d := 2*i, 0.02+0.001*float64(i*i)
				p.update(w, d, int64(i))
				wins, delays, stamps = append(wins, w), append(delays, d), append(stamps, int64(i))
			}
			p.refit(int64(n))
			xs := make([]float64, n)
			for i, w := range wins {
				xs[i] = float64(w)
			}
			ys := append([]float64(nil), delays...)
			maxW := 2 * n
			if dirty {
				// Fold a sample into the second knot and add one past the
				// top, both after the last fit.
				p.update(4, 0.5, int64(n+1))
				delays[1] = alphaProfile*delays[1] + (1-alphaProfile)*0.5
				stamps[1] = int64(n + 1)
				p.update(2*n+7, 0.3, int64(n+1))
				wins, delays, stamps = append(wins, 2*n+7), append(delays, 0.3), append(stamps, int64(n+1))
				maxW = 2*n + 7
			}

			first := saveProfile(t, p)
			if want := profileLayout(t, wins, delays, stamps, maxW, dirty, xs, ys); !bytes.Equal(first, want) {
				t.Fatalf("%d knots, dirty %v: save wrote\n%x\nthe layout is\n%x", n, dirty, first, want)
			}
			q := loadProfile(t, first)
			if second := saveProfile(t, q); !bytes.Equal(second, first) {
				t.Fatalf("%d knots, dirty %v: save → load → save differs", n, dirty)
			}
			if inline := &q.knots[0] == &q.first[0]; inline != (len(wins) <= len(q.first)) {
				t.Errorf("%d knots, dirty %v: loaded knots inline = %v", n, dirty, inline)
			}
			for x := 0.5; x < float64(maxW+10); x += 0.75 {
				if got, want := q.delayAt(x), p.delayAt(x); got != want {
					t.Fatalf("%d knots, dirty %v: loaded curve at %v = %v, want %v", n, dirty, x, got, want)
				}
			}
			p.refit(int64(n + 2))
			q.refit(int64(n + 2))
			if !bytes.Equal(saveProfile(t, q), saveProfile(t, p)) {
				t.Errorf("%d knots, dirty %v: after one more refit the loaded profile saves differently", n, dirty)
			}
		}
	}
}
