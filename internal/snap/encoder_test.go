package snap

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// frameReference frames a payload as the container format states it, with
// nothing of the encoder's: magic, version, the payload, and the CRC-32
// (IEEE) of all three.
func frameReference(payload []byte) []byte {
	out := binary.LittleEndian.AppendUint32([]byte(Magic), Version)
	out = append(out, payload...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
}

// mirroredWalk writes seeded visits through a Save walker and appends the
// bytes each visit puts on the wire to one contiguous reference payload.
type mirroredWalk struct {
	w   Walker
	ref []byte
	rng *rand.Rand
}

func (m *mirroredWalk) step() {
	switch r := m.rng.Intn(100); {
	case r < 30:
		v := uint8(m.rng.Intn(256))
		m.w.U8(&v)
		m.ref = append(m.ref, v)
	case r < 70:
		v := m.rng.Uint64()
		m.w.U64(&v)
		m.ref = binary.LittleEndian.AppendUint64(m.ref, v)
	case r < 80:
		n := m.rng.Intn(1 << 20)
		m.w.Len(n)
		m.ref = binary.LittleEndian.AppendUint32(m.ref, uint32(n))
	default:
		// Mostly short strings; now and then one longer than the first
		// block, so a single write outgrows the block it lands in.
		n := m.rng.Intn(40)
		if r == 99 && m.rng.Intn(8) == 0 {
			n = blockMin + m.rng.Intn(2*blockMin)
		}
		s := strings.Repeat(string(rune('a'+m.rng.Intn(26))), n)
		m.w.Str(&s)
		m.ref = binary.LittleEndian.AppendUint32(m.ref, uint32(n))
		m.ref = append(m.ref, s...)
	}
}

// checkFramed requires Encode and WriteFile to produce the reference framing
// of what was written.
func checkFramed(t *testing.T, e *Encoder, ref []byte, path string) {
	t.Helper()
	want := frameReference(ref)
	got, err := e.Encode(Version)
	if err != nil {
		t.Fatal(err)
	}
	if e.Len() != len(ref) || !bytes.Equal(got, want) {
		t.Fatalf("Encode of a %d-byte payload in %d blocks differs from the reference framing of %d bytes", e.Len(), e.open+1, len(ref))
	}
	if err := WriteFile(path, e, Version); err != nil {
		t.Fatal(err)
	}
	if file, err := os.ReadFile(path); err != nil || !bytes.Equal(file, want) {
		t.Fatalf("WriteFile of a %d-byte payload in %d blocks differs from the reference framing (read error %v)", e.Len(), e.open+1, err)
	}
}

// TestEncoderMatchesReference writes seeded payloads of up to 3.5 MB and
// checks Encode and WriteFile against the reference framing each time the
// payload opens a block, so every growth boundary from the first block on is
// crossed and checked. It then resets the encoder and writes a smaller and a
// larger payload over the kept blocks: the smaller must allocate no block,
// and both must frame exactly.
func TestEncoderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	path := filepath.Join(t.TempDir(), "enc.snap")
	e := NewEncoder()
	checked := 0
	for _, size := range []int{2_600_000, 1_000_000, 3_500_000} {
		e.Reset()
		m := &mirroredWalk{w: Save(e), rng: rng}
		blocks, open := len(e.blocks), 0
		for len(m.ref) < size {
			m.step()
			if e.open != open {
				open = e.open
				checkFramed(t, e, m.ref, path)
				checked++
			}
		}
		checkFramed(t, e, m.ref, path)
		if size < 2_600_000 && len(e.blocks) != blocks {
			t.Errorf("a %d-byte payload after a larger one allocated %d blocks", size, len(e.blocks)-blocks)
		}
		t.Logf("%d-byte payload in %d of %d blocks", len(m.ref), e.open+1, len(e.blocks))
	}
	// 64 KB doubling to 3.5 MB is seven blocks.
	if len(e.blocks) < 7 || checked < 7 {
		t.Fatalf("%d blocks, %d boundaries checked: the payloads did not cross every growth boundary", len(e.blocks), checked)
	}
}

// TestEncoderAllocBytes pins what a checkpoint's payload costs: a 2.6 MB
// payload written from an empty encoder and streamed to a file allocates at
// most 2.1 times its size. An encoder that regrew one buffer by append
// allocated about five times.
func TestEncoderAllocBytes(t *testing.T) {
	const size = 2_600_000
	path := filepath.Join(t.TempDir(), "alloc.snap")
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	e := NewEncoder()
	w := Save(e)
	for v := uint64(0); e.Len() < size; v++ {
		w.U64(&v)
	}
	err := WriteFile(path, e, Version)
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	got, limit := m1.TotalAlloc-m0.TotalAlloc, uint64(2.1*size)
	if got > limit {
		t.Fatalf("writing %d payload bytes allocated %d bytes, more than 2.1x", e.Len(), got)
	}
	t.Logf("writing %d payload bytes allocated %d bytes, %.2fx", e.Len(), got, float64(got)/float64(e.Len()))
}
