package snap

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"strings"
	"testing"
	"time"
)

// walked is a component with one field per visit kind. cfg, bins and hist are
// what a rebuild fixes: a configured value and two fixed-length tables.
type walked struct {
	cfg  time.Duration
	u8   uint8
	u64  uint64
	i64  int64
	n    int
	ok   bool
	f    float64
	d    time.Duration
	s    string
	fs   []float64
	is   []int64
	ns   []int
	bins []float64
	hist [3]int64
	list []int64 // hand-walked behind Len
}

func (c *walked) Walk(w Walker) {
	w.Tag("walked")
	w.SameDur(c.cfg, "walked: configured window")
	w.U8(&c.u8)
	w.U64(&c.u64)
	w.I64(&c.i64)
	w.Int(&c.n)
	w.Bool(&c.ok)
	w.F64(&c.f)
	w.Dur(&c.d)
	w.Str(&c.s)
	w.F64s(&c.fs)
	w.I64s(&c.is)
	w.Ints(&c.ns)
	w.FixedF64s(c.bins, "walked: bins")
	w.FixedI64s(c.hist[:], "walked: histogram cells")
	n := w.Len(len(c.list))
	if w.Loading() {
		c.list = c.list[:0]
	}
	for i := 0; i < n && w.Err() == nil; i++ {
		var x int64
		if !w.Loading() {
			x = c.list[i]
		}
		if w.I64(&x); w.Loading() && w.Err() == nil {
			c.list = append(c.list, x)
		}
	}
}

func fullWalked() *walked {
	return &walked{
		cfg: time.Second, u8: 7, u64: 1 << 63, i64: -5, n: 42, ok: true, f: 6.5, d: 3 * time.Millisecond, s: "verus",
		fs: []float64{1.5, 2.5}, is: []int64{-1, 0, 1}, ns: []int{9, 8},
		bins: []float64{0.25, 0.75}, hist: [3]int64{1, 2, 3}, list: []int64{4, 5},
	}
}

func rebuiltWalked() *walked {
	return &walked{cfg: time.Second, bins: make([]float64, 2)}
}

func saveWalked(t *testing.T, c Walkable) []byte {
	t.Helper()
	e := NewEncoder()
	c.Walk(Save(e))
	blob, err := e.Encode(Version)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func loadWalked(t *testing.T, blob []byte, c Walkable) *Decoder {
	t.Helper()
	d, err := Decode(blob, Version)
	if err != nil {
		t.Fatal(err)
	}
	c.Walk(Load(d))
	return d
}

// TestWalkerRoundTrip: one walk drives both directions, so save → load onto a
// rebuild → save again is byte-identical, and the loaded value is the saved
// one.
func TestWalkerRoundTrip(t *testing.T) {
	orig := fullWalked()
	blob := saveWalked(t, orig)
	got := rebuiltWalked()
	if err := loadWalked(t, blob, got).Done(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, orig) {
		t.Fatalf("loaded %+v, saved %+v", got, orig)
	}
	if again := saveWalked(t, got); !bytes.Equal(again, blob) {
		t.Fatalf("second save differs from the first (%d vs %d bytes)", len(again), len(blob))
	}
}

// TestWalkerMatchesEncoderLayout pins the wire bytes of every visit: each is
// little-endian at a fixed width, with a u32 prefix before a string or a
// list, and a Same visit writes exactly what its plain visit does.
func TestWalkerMatchesEncoderLayout(t *testing.T) {
	e := NewEncoder()
	w := Save(e)
	fullWalked().Walk(w)
	w.SameInt(-3, "walked: int")
	w.SameI64(1<<40, "walked: int64")
	w.SameF64(-0.5, "walked: float64")
	want := wireBytes(t,
		"06000000 77616c6b6564", // Tag "walked"
		"00ca9a3b00000000",      // SameDur 1s
		"07",                    // U8 7
		"0000000000000080",      // U64 1<<63
		"fbffffffffffffff",      // I64 -5
		"2a00000000000000",      // Int 42
		"01",                    // Bool true
		"0000000000001a40",      // F64 6.5
		"c0c62d0000000000",      // Dur 3ms
		"05000000 7665727573",   // Str "verus"
		"02000000 000000000000f83f 0000000000000440",                  // F64s {1.5, 2.5}
		"03000000 ffffffffffffffff 0000000000000000 0100000000000000", // I64s {-1, 0, 1}
		"02000000 0900000000000000 0800000000000000",                  // Ints {9, 8}
		"02000000 000000000000d03f 000000000000e83f",                  // FixedF64s {0.25, 0.75}
		"03000000 0100000000000000 0200000000000000 0300000000000000", // FixedI64s {1, 2, 3}
		"02000000 0400000000000000 0500000000000000",                  // Len 2, then I64 4 and 5
		"fdffffffffffffff", // SameInt -3
		"0000000000010000", // SameI64 1<<40
		"000000000000e0bf", // SameF64 -0.5
	)
	if got := bytes.Join(e.parts(), nil); e.Err() != nil || !bytes.Equal(got, want) {
		t.Fatalf("walker wrote (err %v)\n%x\nwant\n%x", e.Err(), got, want)
	}
}

// wireBytes decodes hex fields, spaces ignored, into one byte string.
func wireBytes(t *testing.T, fields ...string) []byte {
	t.Helper()
	b, err := hex.DecodeString(strings.ReplaceAll(strings.Join(fields, ""), " ", ""))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestWalkerRebuiltConfigMismatch: a Same value that differs from the rebuilt
// one, and a fixed table of the wrong length, each fail the load naming the
// component, and the table is left as the rebuild made it.
func TestWalkerRebuiltConfigMismatch(t *testing.T) {
	blob := saveWalked(t, fullWalked())
	for name, tc := range map[string]struct {
		rebuild func(*walked)
		want    []string
	}{
		"same":        {func(c *walked) { c.cfg = 2 * time.Second }, []string{"walked: configured window", "1s", "2s"}},
		"fixed slice": {func(c *walked) { c.bins = []float64{-1, -1, -1} }, []string{"walked: bins", "snapshot has 2", "rebuild has 3"}},
	} {
		c := rebuiltWalked()
		tc.rebuild(c)
		err := loadWalked(t, blob, c).Err()
		if err == nil {
			t.Fatalf("%s: mismatched snapshot loaded", name)
		}
		for _, s := range tc.want {
			if !strings.Contains(err.Error(), s) {
				t.Errorf("%s: error %q does not mention %q", name, err, s)
			}
		}
		for _, b := range c.bins {
			if b > 0 {
				t.Errorf("%s: rejected load overwrote the fixed table: %v", name, c.bins)
			}
		}
	}
	// The array kind: a snapshot of a build with four cells per row.
	wide := NewEncoder()
	w := Save(wide)
	w.FixedI64s(make([]int64, 4), "walked: histogram cells")
	blob, _ = wide.Encode(Version)
	d, err := Decode(blob, Version)
	if err != nil {
		t.Fatal(err)
	}
	hist := [3]int64{7, 7, 7}
	Load(d).FixedI64s(hist[:], "walked: histogram cells")
	if err := d.Err(); err == nil || !strings.Contains(err.Error(), "walked: histogram cells") {
		t.Fatalf("wrong-length array: err = %v", err)
	}
	if hist != [3]int64{7, 7, 7} {
		t.Fatalf("rejected load overwrote the array: %v", hist)
	}
}

// TestWalkerSlicesLoadInPlace: a load decodes into the destination's capacity,
// keeps a nil destination nil at a zero count, and never allocates for a count
// the payload cannot hold.
func TestWalkerSlicesLoadInPlace(t *testing.T) {
	e := NewEncoder()
	w := Save(e)
	fs, none := []float64{1, 2, 3}, []int64(nil)
	w.F64s(&fs)
	w.I64s(&none)
	w.Len(1 << 30) // a count with nothing behind it
	blob, _ := e.Encode(Version)
	d, err := Decode(blob, Version)
	if err != nil {
		t.Fatal(err)
	}
	w = Load(d)
	dst := make([]float64, 1, 8)
	base := &dst[0]
	w.F64s(&dst)
	if len(dst) != 3 || &dst[0] != base || dst[2] != 3 {
		t.Fatalf("F64s loaded %v, in place: %v", dst, &dst[0] == base)
	}
	var empty []int64
	if w.I64s(&empty); empty != nil {
		t.Fatalf("zero count made a nil destination %#v", empty)
	}
	var huge []int
	if w.Ints(&huge); d.Err() == nil || huge != nil {
		t.Fatalf("overrunning count: err %v, loaded %d elements", d.Err(), len(huge))
	}
}

// TestWalkerSaveBuildsNoMessages: a save never takes a mismatch branch, so it
// builds no message and boxes no value — it allocates nothing at all once the
// encoder is warm.
func TestWalkerSaveBuildsNoMessages(t *testing.T) {
	c := fullWalked()
	e := NewEncoder()
	w := Save(e)
	c.Walk(w)
	if n := testing.AllocsPerRun(10, func() {
		e.Reset()
		c.Walk(w)
	}); n != 0 || e.Err() != nil {
		t.Fatalf("a save allocated %v times (err %v), want 0", n, e.Err())
	}
}
