package snap

import (
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// walkFunc makes a list of visits a Walkable.
type walkFunc func(Walker)

func (f walkFunc) Walk(w Walker) { f(w) }

// body is a one-section payload: a tag and one uint64.
func body(w Walker) {
	w.Tag("body")
	v := uint64(12345)
	w.U64(&v)
}

// TestRoundTrip drives every plain visit through a save and a load and
// requires exact recovery, including float bit patterns.
func TestRoundTrip(t *testing.T) {
	type values struct {
		u8           uint8
		n            int
		u64          uint64
		i64          int64
		i            int
		yes, no      bool
		negZero, nan float64
		negInf, pi   float64
		d            time.Duration
		s, empty     string
		is           []int64
		fs           []float64
	}
	walk := func(w Walker, v *values) {
		w.Tag("header")
		w.U8(&v.u8)
		v.n = w.Len(v.n)
		w.U64(&v.u64)
		w.I64(&v.i64)
		w.Int(&v.i)
		w.Bool(&v.yes)
		w.Bool(&v.no)
		w.F64(&v.negZero)
		w.F64(&v.nan)
		w.F64(&v.negInf)
		w.F64(&v.pi)
		w.Dur(&v.d)
		w.Str(&v.s)
		w.Str(&v.empty)
		w.I64s(&v.is)
		w.F64s(&v.fs)
		w.Tag("trailer")
	}
	in := values{
		u8: 7, n: 0xDEADBEEF, u64: math.MaxUint64, i64: -42, i: 123456, yes: true,
		negZero: math.Copysign(0, -1), nan: math.Float64frombits(0x7ff8000000000001),
		negInf: math.Inf(-1), pi: 3.14159, d: 1500 * time.Millisecond, s: "hello",
		is: []int64{-1, 0, 1}, fs: []float64{0.5, -0.25},
	}
	data := saveWalked(t, walkFunc(func(w Walker) { walk(w, &in) }))
	var out values
	if err := loadWalked(t, data, walkFunc(func(w Walker) { walk(w, &out) })).Done(); err != nil {
		t.Fatalf("Done: %v", err)
	}
	for _, f := range [][2]float64{{out.negZero, in.negZero}, {out.nan, in.nan}, {out.negInf, in.negInf}} {
		if math.Float64bits(f[0]) != math.Float64bits(f[1]) {
			t.Errorf("F64 bits %#x, saved %#x", math.Float64bits(f[0]), math.Float64bits(f[1]))
		}
	}
	// NaN equals nothing, itself included; the bits are checked above.
	out.nan, in.nan = 0, 0
	if !reflect.DeepEqual(out, in) {
		t.Errorf("loaded %+v, saved %+v", out, in)
	}
}

// TestFramingRejections proves the fail-closed framing contract: truncation,
// corruption, wrong version, and bad magic all refuse to decode.
func TestFramingRejections(t *testing.T) {
	data := saveWalked(t, walkFunc(body))
	if _, err := Decode(data, Version); err != nil {
		t.Fatalf("pristine file rejected: %v", err)
	}
	if _, err := Decode(data[:len(data)-1], Version); err == nil {
		t.Error("truncated file accepted")
	}
	if _, err := Decode(data[:5], Version); !errors.Is(err, ErrTruncated) {
		t.Errorf("short file: got %v, want ErrTruncated", err)
	}
	if _, err := Decode(nil, Version); !errors.Is(err, ErrTruncated) {
		t.Errorf("empty file: got %v, want ErrTruncated", err)
	}
	for i := 0; i < len(data); i++ {
		bad := append([]byte(nil), data...)
		bad[i] ^= 0x40
		if _, err := Decode(bad, Version); err == nil {
			t.Fatalf("single-bit corruption at byte %d accepted", i)
		}
	}
	if _, err := Decode(data, Version+1); err == nil {
		t.Error("wrong version accepted")
	}
	// Wrong-version detection must win over a generic CRC story when the
	// file is otherwise intact: re-frame at a future version.
	e := NewEncoder()
	body(Save(e))
	future, err := e.Encode(Version + 9)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(future, Version); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("future-version file: got %v, want version error", err)
	}
}

// TestStickyErrors locks in the sticky-error contract: a failed decoder
// loads zero values and keeps the first error.
func TestStickyErrors(t *testing.T) {
	one := uint8(1)
	d := loadWalked(t, saveWalked(t, walkFunc(func(w Walker) { w.U8(&one) })), walkFunc(func(Walker) {}))
	w := Load(d)
	var u8 uint8
	w.U8(&u8)
	v := uint64(99)
	if w.U64(&v); v != 0 {
		t.Errorf("overread loaded %d, want 0", v)
	}
	first := d.Err()
	if first == nil {
		t.Fatal("overread did not set error")
	}
	s := "stale"
	if w.Str(&s); s != "" || d.Err() != first {
		t.Errorf("after a failure Str loaded %q and error %v, want \"\" and the first error", s, d.Err())
	}
	if err := d.Done(); err != first {
		t.Errorf("Done = %v, want first error", err)
	}

	// A tag mismatch names both sides, and quotes a long impostor only in part.
	long := strings.Repeat("m", 100)
	for _, stream := range []string{"mesh", long} {
		d := loadWalked(t, saveWalked(t, walkFunc(func(w Walker) { w.Tag(stream) })), walkFunc(func(w Walker) { w.Tag("heap") }))
		want := `snap: section tag mismatch: decoding "heap", stream has "mesh"`
		if stream == long {
			want = `snap: section tag mismatch: decoding "heap", stream has "` + long[:64] + `..."`
		}
		if err := d.Err(); err == nil || err.Error() != want {
			t.Errorf("tag mismatch error %v, want %s", err, want)
		}
	}

	// A bool is one byte, 0 or 1; anything else fails the load.
	two := uint8(2)
	d = loadWalked(t, saveWalked(t, walkFunc(func(w Walker) { w.U8(&two) })), walkFunc(func(w Walker) {
		b := true
		if w.Bool(&b); b {
			t.Error("invalid bool byte loaded true")
		}
	}))
	if err := d.Err(); err == nil || err.Error() != "snap: invalid bool byte 2" {
		t.Errorf("bool byte 2: err %v", err)
	}

	// A failed encoder refuses to frame.
	e := NewEncoder()
	e.Fail(errors.New("component refused"))
	body(Save(e))
	if _, err := e.Encode(Version); err == nil {
		t.Error("failed encoder framed a payload")
	}
}

// TestWriteReadFile exercises the atomic file path end to end, including
// on-disk truncation and corruption rejection.
func TestWriteReadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.snap")
	e := NewEncoder()
	body(Save(e))
	if err := WriteFile(path, e, Version); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	d, err := ReadFile(path, Version)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	var v uint64
	w := Load(d)
	w.Tag("body")
	if w.U64(&v); v != 12345 {
		t.Errorf("payload = %d", v)
	}
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	// No temp litter after a successful write.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory has %d entries after WriteFile, want 1", len(entries))
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path, Version); err == nil {
		t.Error("truncated on-disk file accepted")
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path, Version); err == nil {
		t.Error("corrupted on-disk file accepted")
	}
	if _, err := ReadFile(filepath.Join(dir, "missing.snap"), Version); err == nil {
		t.Error("missing file accepted")
	}
}

// TestEncoderReset pins the reuse contract at the codec: WriteFile refuses a
// failed encoder and leaves nothing behind, and Reset empties the payload
// and clears the sticky error but keeps the buffer. That a reused encoder
// then frames and writes exactly what a fresh one does is pinned on real
// trial snapshots in internal/experiments.
func TestEncoderReset(t *testing.T) {
	e := NewEncoder()
	w := Save(e)
	w.Tag("first")
	big := strings.Repeat("x", 4096)
	w.Str(&big)
	grown := cap(e.buf)
	e.Fail(errors.New("component refused"))
	path := filepath.Join(t.TempDir(), "ckpt.snap")
	if err := WriteFile(path, e, Version); err == nil {
		t.Fatal("WriteFile framed a failed encoder")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("a refused write left %s behind (stat: %v)", path, err)
	}
	e.Reset()
	if e.Len() != 0 || e.Err() != nil {
		t.Fatalf("after Reset: Len %d, Err %v", e.Len(), e.Err())
	}
	if cap(e.buf) != grown {
		t.Fatalf("Reset changed the buffer capacity from %d to %d", grown, cap(e.buf))
	}
}

// TestSourceStreamIdentity proves adopting Source inside a component cannot
// change a digest: the rand.Rand value stream matches rand.NewSource exactly
// across the full method surface components use.
func TestSourceStreamIdentity(t *testing.T) {
	ref := rand.New(rand.NewSource(99))
	got := rand.New(NewSource(99))
	for i := 0; i < 10000; i++ {
		switch i % 5 {
		case 0:
			if a, b := ref.Float64(), got.Float64(); a != b {
				t.Fatalf("Float64 diverged at draw %d: %v vs %v", i, a, b)
			}
		case 1:
			if a, b := ref.Int63(), got.Int63(); a != b {
				t.Fatalf("Int63 diverged at draw %d", i)
			}
		case 2:
			if a, b := ref.Intn(1000), got.Intn(1000); a != b {
				t.Fatalf("Intn diverged at draw %d", i)
			}
		case 3:
			if a, b := ref.Uint64(), got.Uint64(); a != b {
				t.Fatalf("Uint64 diverged at draw %d", i)
			}
		case 4:
			if a, b := ref.NormFloat64(), got.NormFloat64(); a != b {
				t.Fatalf("NormFloat64 diverged at draw %d", i)
			}
		}
	}
}

// TestSourceSnapshotRestore proves the (seed, draws) pair relocates the
// stream exactly: a restored source continues with the same values the
// original produced, from any position and any mix of draw methods.
func TestSourceSnapshotRestore(t *testing.T) {
	src := NewSource(1234)
	r := rand.New(src)
	for i := 0; i < 777; i++ {
		switch i % 3 {
		case 0:
			r.Float64()
		case 1:
			r.Intn(17) // rejection sampling: variable source draws per call
		case 2:
			r.Uint64()
		}
	}
	src2 := NewSource(0)
	if err := loadWalked(t, saveWalked(t, src), src2).Done(); err != nil {
		t.Fatal(err)
	}
	r2 := rand.New(src2)
	for i := 0; i < 1000; i++ {
		if a, b := r.Float64(), r2.Float64(); a != b {
			t.Fatalf("restored stream diverged at draw %d: %v vs %v", i, a, b)
		}
	}
	if src.draws != src2.draws {
		t.Errorf("draw counters diverged: %d vs %d", src.draws, src2.draws)
	}
}
