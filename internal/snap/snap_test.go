package snap

import (
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestRoundTrip drives every codec primitive through an encode/decode cycle
// and requires exact recovery, including float bit patterns.
func TestRoundTrip(t *testing.T) {
	e := NewEncoder()
	e.Tag("header")
	e.U8(7)
	e.U32(0xDEADBEEF)
	e.U64(math.MaxUint64)
	e.I64(-42)
	e.Int(123456)
	e.Bool(true)
	e.Bool(false)
	e.F64(-0.0)
	e.F64(math.Inf(-1))
	e.F64(3.14159)
	e.Dur(1500 * time.Millisecond)
	e.Bytes([]byte{1, 2, 3})
	e.Bytes(nil)
	e.Str("hello")
	e.I64s([]int64{-1, 0, 1})
	e.F64s([]float64{0.5, -0.25})
	e.Tag("trailer")
	data, err := e.Encode(Version)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}

	d, err := Decode(data, Version)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	d.Expect("header")
	if v := d.U8(); v != 7 {
		t.Errorf("U8 = %d", v)
	}
	if v := d.U32(); v != 0xDEADBEEF {
		t.Errorf("U32 = %#x", v)
	}
	if v := d.U64(); v != math.MaxUint64 {
		t.Errorf("U64 = %d", v)
	}
	if v := d.I64(); v != -42 {
		t.Errorf("I64 = %d", v)
	}
	if v := d.Int(); v != 123456 {
		t.Errorf("Int = %d", v)
	}
	if v := d.Bool(); v != true {
		t.Errorf("Bool = %v", v)
	}
	if v := d.Bool(); v != false {
		t.Errorf("Bool = %v", v)
	}
	if v := d.F64(); math.Float64bits(v) != math.Float64bits(-0.0) {
		t.Errorf("F64 negative zero lost: %v", v)
	}
	if v := d.F64(); !math.IsInf(v, -1) {
		t.Errorf("F64 -Inf lost: %v", v)
	}
	if v := d.F64(); v != 3.14159 {
		t.Errorf("F64 = %v", v)
	}
	if v := d.Dur(); v != 1500*time.Millisecond {
		t.Errorf("Dur = %v", v)
	}
	if v := d.Bytes(); len(v) != 3 || v[0] != 1 || v[2] != 3 {
		t.Errorf("Bytes = %v", v)
	}
	if v := d.Bytes(); len(v) != 0 {
		t.Errorf("nil Bytes = %v", v)
	}
	if v := d.Str(); v != "hello" {
		t.Errorf("Str = %q", v)
	}
	if v := d.I64s(); len(v) != 3 || v[0] != -1 || v[2] != 1 {
		t.Errorf("I64s = %v", v)
	}
	if v := d.F64s(); len(v) != 2 || v[0] != 0.5 || v[1] != -0.25 {
		t.Errorf("F64s = %v", v)
	}
	d.Expect("trailer")
	if err := d.Done(); err != nil {
		t.Fatalf("Done: %v", err)
	}
}

// TestFramingRejections proves the fail-closed framing contract: truncation,
// corruption, wrong version, and bad magic all refuse to decode.
func TestFramingRejections(t *testing.T) {
	e := NewEncoder()
	e.Tag("body")
	e.U64(12345)
	data, err := e.Encode(Version)
	if err != nil {
		t.Fatal(err)
	}

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
	e2 := NewEncoder()
	e2.Tag("body")
	e2.U64(12345)
	future, err := e2.Encode(Version + 9)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(future, Version); err == nil || !contains(err.Error(), "version") {
		t.Errorf("future-version file: got %v, want version error", err)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestStickyErrors locks in the sticky-error contract: a failed decoder
// returns zero values and keeps the first error.
func TestStickyErrors(t *testing.T) {
	e := NewEncoder()
	e.U8(1)
	data, err := e.Encode(Version)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Decode(data, Version)
	if err != nil {
		t.Fatal(err)
	}
	_ = d.U8()
	if v := d.U64(); v != 0 {
		t.Errorf("overread returned %d, want 0", v)
	}
	first := d.Err()
	if first == nil {
		t.Fatal("overread did not set error")
	}
	_ = d.Str()
	if d.Err() != first {
		t.Error("second failure replaced the first error")
	}
	if err := d.Done(); err != first {
		t.Errorf("Done = %v, want first error", err)
	}

	// Tag mismatch names both sides.
	e2 := NewEncoder()
	e2.Tag("mesh")
	data2, _ := e2.Encode(Version)
	d2, _ := Decode(data2, Version)
	d2.Expect("heap")
	if err := d2.Err(); err == nil || !contains(err.Error(), "mesh") || !contains(err.Error(), "heap") {
		t.Errorf("tag mismatch error %v does not name both tags", err)
	}

	// A failed encoder refuses to frame.
	e3 := NewEncoder()
	e3.Fail(errors.New("component refused"))
	e3.U64(1)
	if _, err := e3.Encode(Version); err == nil {
		t.Error("failed encoder framed a payload")
	}
}

// TestWriteReadFile exercises the atomic file path end to end, including
// on-disk truncation and corruption rejection.
func TestWriteReadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.snap")
	e := NewEncoder()
	e.Tag("file")
	e.I64(-7)
	if err := WriteFile(path, e, Version); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	d, err := ReadFile(path, Version)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	d.Expect("file")
	if v := d.I64(); v != -7 {
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
	e.Tag("first")
	e.Bytes(make([]byte, 4096))
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
	e := NewEncoder()
	src.Walk(Save(e))
	data, err := e.Encode(Version)
	if err != nil {
		t.Fatal(err)
	}

	d, err := Decode(data, Version)
	if err != nil {
		t.Fatal(err)
	}
	src2 := NewSource(0)
	src2.Walk(Load(d))
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	r2 := rand.New(src2)
	for i := 0; i < 1000; i++ {
		if a, b := r.Float64(), r2.Float64(); a != b {
			t.Fatalf("restored stream diverged at draw %d: %v vs %v", i, a, b)
		}
	}
	if src.Draws() != src2.Draws() {
		t.Errorf("draw counters diverged: %d vs %d", src.Draws(), src2.Draws())
	}
}
