// Package snap is the checkpoint codec for the simulator: a deterministic,
// length-prefixed binary format with a version header and a CRC-32 trailer
// (DESIGN.md §10).
//
// The format is deliberately dumb. Every value is written little-endian at a
// fixed width (or with an explicit u32 length prefix for strings and lists),
// so an encoding is a pure function of the value sequence — no maps, no
// reflection, no varints whose width depends on the platform. Section tags
// are part of the byte stream: they cost a few bytes per component but turn
// an encode/decode order skew — the classic snapshot bug — into an immediate,
// named error instead of a silently corrupt restore.
//
// Walker is the one byte API. Each component implements Walkable: one Walk
// that visits its checkpointed fields, in wire order, through a Walker.
// Bound to an Encoder (Save) each visit writes its field, bound to a Decoder
// (Load) it overwrites it, so a component lists its fields once and the two
// directions cannot disagree about order. What the rebuild fixes (a window
// size, a table length) goes through the Same and Fixed visits, which write
// it on save and require it on load; what only a load does (validate,
// rematerialize, re-register) is guarded by Loading. Encoder and Decoder are
// the containers a walk runs over: they hold the payload, frame it, and
// carry the error.
//
// Error handling is sticky on both sides. An Encoder that has failed ignores
// further writes; a Decoder that has failed (short read, tag mismatch,
// Fail()) hands every later visit a zero value and reports the first error
// from Err. Callers check once, at the end, which keeps component code free
// of per-field error plumbing.
//
// A complete snapshot file is
//
//	magic "VSNP" | u32 version | payload ... | u32 crc32(IEEE, magic..payload)
//
// and Decode verifies magic, version, and CRC before handing out a single
// payload byte — a truncated, corrupted, or wrong-version file fails closed,
// never a partial restore.
package snap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// Magic identifies a snapshot file.
const Magic = "VSNP"

// Version is the current snapshot format version. Bump it whenever the
// payload layout of any component changes; Decode rejects every other
// version, so a stale checkpoint can never be half-applied to new code.
// Version 2: packets and flow metrics carry delay-attribution state, and
// metro trials carry per-cell attribution aggregates. Version 3: flow
// metrics, attribution aggregates, summaries, in-flight entries and Sprout
// controllers carry only state a run reads.
const Version uint32 = 3

// ErrTruncated reports a payload that ended mid-value.
var ErrTruncated = errors.New("snap: truncated snapshot")

// Encoder accumulates the payload a Save walk writes. The zero value is ready
// to use.
type Encoder struct {
	buf []byte
	err error
}

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder { return &Encoder{} }

// Fail marks the encoder failed; subsequent writes are ignored.
func (e *Encoder) Fail(err error) {
	if e.err == nil && err != nil {
		e.err = err
	}
}

// Err returns the first error recorded by Fail.
func (e *Encoder) Err() error { return e.err }

// Len returns the current payload size in bytes.
func (e *Encoder) Len() int { return len(e.buf) }

// Reset empties the encoder for the next snapshot: the payload is truncated,
// the sticky error cleared, and the buffer's capacity kept, so a sweep that
// snapshots at every barrier grows its buffer once rather than once per
// snapshot.
func (e *Encoder) Reset() {
	e.buf = e.buf[:0]
	e.err = nil
}

// put8, put32 and put64 append one little-endian value, and raw appends
// bytes as they are. Like every write, they do nothing once the encoder has
// failed.
func (e *Encoder) put8(v uint8) {
	if e.err == nil {
		e.buf = append(e.buf, v)
	}
}

func (e *Encoder) put32(v uint32) {
	if e.err == nil {
		e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
	}
}

func (e *Encoder) put64(v uint64) {
	if e.err == nil {
		e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
	}
}

func (e *Encoder) raw(s string) {
	if e.err == nil {
		e.buf = append(e.buf, s...)
	}
}

// headerLen and trailerLen are the framing around a payload: magic plus
// version in front, the CRC behind.
const (
	headerLen  = len(Magic) + 4
	trailerLen = 4
)

// frame is the one definition of the container format: it returns the header
// and trailer that turn payload into a complete snapshot. The CRC runs over
// header then payload, which is what Decode recomputes over the file body.
func frame(version uint32, payload []byte) (hdr [headerLen]byte, trailer [trailerLen]byte) {
	copy(hdr[:], Magic)
	binary.LittleEndian.PutUint32(hdr[len(Magic):], version)
	crc := crc32.Update(crc32.ChecksumIEEE(hdr[:]), crc32.IEEETable, payload)
	binary.LittleEndian.PutUint32(trailer[:], crc)
	return hdr, trailer
}

// Encode frames the payload into a complete snapshot in memory: magic,
// version, payload, CRC trailer. It returns the encoder's sticky error, if
// any. WriteFile produces the same bytes without the copy.
func (e *Encoder) Encode(version uint32) ([]byte, error) {
	if e.err != nil {
		return nil, e.err
	}
	hdr, trailer := frame(version, e.buf)
	out := make([]byte, 0, headerLen+len(e.buf)+trailerLen)
	out = append(out, hdr[:]...)
	out = append(out, e.buf...)
	out = append(out, trailer[:]...)
	return out, nil
}

// Decoder holds a snapshot payload for a Load walk to consume.
type Decoder struct {
	buf []byte
	off int
	err error
}

// Decode verifies the framing of a complete snapshot — magic, version, CRC
// trailer — and returns a decoder positioned at the payload. Any framing
// violation is an error before a single payload byte is exposed.
func Decode(data []byte, wantVersion uint32) (*Decoder, error) {
	if len(data) < headerLen+trailerLen {
		return nil, fmt.Errorf("snap: file of %d bytes is too short to be a snapshot: %w", len(data), ErrTruncated)
	}
	body, trailer := data[:len(data)-trailerLen], data[len(data)-trailerLen:]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(trailer); got != want {
		return nil, fmt.Errorf("snap: CRC mismatch (file %08x, computed %08x): snapshot is corrupted or truncated", want, got)
	}
	if string(body[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("snap: bad magic %q, not a snapshot file", body[:len(Magic)])
	}
	if v := binary.LittleEndian.Uint32(body[len(Magic):]); v != wantVersion {
		return nil, fmt.Errorf("snap: format version %d, this build reads version %d", v, wantVersion)
	}
	return &Decoder{buf: body[headerLen:]}, nil
}

// Fail marks the decoder failed; later visits load zero values.
func (d *Decoder) Fail(err error) {
	if d.err == nil && err != nil {
		d.err = err
	}
}

// Err returns the first error recorded by a read or Fail.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unconsumed payload bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Done verifies the payload was consumed exactly: no sticky error and no
// trailing bytes. Call it once after the last visit.
func (d *Decoder) Done() error {
	if d.err != nil {
		return d.err
	}
	if n := d.Remaining(); n != 0 {
		return fmt.Errorf("snap: %d trailing bytes after final field", n)
	}
	return nil
}

// take consumes n payload bytes, failing the decoder on a short read.
func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.Remaining() < n {
		d.Fail(fmt.Errorf("snap: need %d bytes at offset %d, have %d: %w", n, d.off, d.Remaining(), ErrTruncated))
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// get8, get32 and get64 read one little-endian value, or return 0 once the
// decoder has failed.
func (d *Decoder) get8() uint8 {
	if b := d.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (d *Decoder) get32() uint32 {
	if b := d.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (d *Decoder) get64() uint64 {
	if b := d.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// count reads a u32 element count and checks that the payload still holds
// that many elemSize-byte elements: a length prefix is a claim about bytes
// present, never a size to allocate on trust. It returns 0 on failure.
func (d *Decoder) count(elemSize int, elem string) int {
	n := int(d.get32())
	if d.err != nil {
		return 0
	}
	if d.Remaining()/elemSize < n {
		d.Fail(fmt.Errorf("snap: %s slice of %d elements overruns payload: %w", elem, n, ErrTruncated))
		return 0
	}
	return n
}

// WriteFile frames the encoder's payload and writes it atomically: the bytes
// land in a temp file in the destination directory, which is fsynced and
// renamed over path. A crash mid-write leaves the previous complete
// checkpoint in place, never a torn file. The framing is streamed — header,
// the encoder's own buffer, trailer — so the file holds exactly the bytes
// Encode returns without a second copy of the payload being built.
func WriteFile(path string, e *Encoder, version uint32) error {
	if e.err != nil {
		return e.err
	}
	hdr, trailer := frame(version, e.buf)
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	for _, part := range [][]byte{hdr[:], e.buf, trailer[:]} {
		if _, err := tmp.Write(part); err != nil {
			tmp.Close()
			return err
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// ReadFile reads and verifies a snapshot file written by WriteFile.
func ReadFile(path string, version uint32) (*Decoder, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	d, err := Decode(data, version)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}
