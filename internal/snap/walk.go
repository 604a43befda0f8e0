package snap

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// Walker is the two-way field visitor a component's checkpoint is written
// against. Bound to an Encoder (Save) each visit writes the field it is
// handed; bound to a Decoder (Load) the same visit overwrites it. A component
// therefore lists its checkpointed fields once, in wire order, and the encode
// and decode orders cannot drift apart. Walker is two pointers: pass it by
// value.
//
// Errors are the sticky ones of the codec underneath. After a failed read
// every later visit stores a zero value, so a walk needs no per-field checks;
// it consults Err only before acting on what it loaded.
type Walker struct {
	e *Encoder
	d *Decoder
}

// Walkable is implemented by every component that takes part in a checkpoint:
// Walk visits the component's mutable state, saving or loading it according
// to the walker's direction. A load runs over a freshly rebuilt component,
// and records failures on the walker rather than returning them; the
// orchestrator checks Err once at the end.
type Walkable interface {
	Walk(Walker)
}

// Save returns a walker that appends every visited field to e.
func Save(e *Encoder) Walker { return Walker{e: e} }

// Load returns a walker that overwrites every visited field from d.
func Load(d *Decoder) Walker { return Walker{d: d} }

// Loading reports the direction: true when visits overwrite their fields.
// Validation of loaded values, and anything else only a restore does, is
// guarded by it.
func (w Walker) Loading() bool { return w.d != nil }

// Err returns the first error of the underlying encoder or decoder.
func (w Walker) Err() error {
	if w.d != nil {
		return w.d.err
	}
	return w.e.err
}

// Fail records err on the underlying encoder or decoder.
func (w Walker) Fail(err error) {
	if w.d != nil {
		w.d.Fail(err)
	} else {
		w.e.Fail(err)
	}
}

// Tag visits a section marker, carried as a string: written on save,
// required on load. A mismatch is a hard decode error naming both sides —
// the guard against encode/decode order skew.
func (w Walker) Tag(name string) {
	got := name
	if w.Str(&got); w.d != nil && w.d.err == nil && got != name {
		// Whatever sits where the tag should be may be any length; quote
		// enough of it to recognise, not all of it.
		if len(got) > 64 {
			got = got[:64] + "..."
		}
		w.d.Fail(fmt.Errorf("snap: section tag mismatch: decoding %q, stream has %q", name, got))
	}
}

// U8 visits one byte.
func (w Walker) U8(p *uint8) {
	if w.d != nil {
		*p = w.d.get8()
	} else {
		w.e.put8(*p)
	}
}

// U64 visits a uint64.
func (w Walker) U64(p *uint64) {
	if w.d != nil {
		*p = w.d.get64()
	} else {
		w.e.put64(*p)
	}
}

// I64 visits an int64, carried as its two's-complement uint64 image.
func (w Walker) I64(p *int64) {
	if w.d != nil {
		*p = int64(w.d.get64())
	} else {
		w.e.put64(uint64(*p))
	}
}

// Int visits a platform int, carried as int64.
func (w Walker) Int(p *int) {
	if w.d != nil {
		*p = int(int64(w.d.get64()))
	} else {
		w.e.put64(uint64(int64(*p)))
	}
}

// Bool visits a bool, carried as one byte. A load rejects any byte other
// than 0 or 1.
func (w Walker) Bool(p *bool) {
	if w.d == nil {
		var b uint8
		if *p {
			b = 1
		}
		w.e.put8(b)
		return
	}
	switch v := w.d.get8(); v {
	case 0, 1:
		*p = v == 1
	default:
		*p = false
		w.d.Fail(fmt.Errorf("snap: invalid bool byte %d", v))
	}
}

// F64 visits a float64 as its IEEE-754 bit pattern — bit-exact, including
// NaN payloads and signed zeros.
func (w Walker) F64(p *float64) {
	if w.d != nil {
		*p = math.Float64frombits(w.d.get64())
	} else {
		w.e.put64(math.Float64bits(*p))
	}
}

// Dur visits a time.Duration, carried as int64 nanoseconds.
func (w Walker) Dur(p *time.Duration) {
	if w.d != nil {
		*p = time.Duration(w.d.get64())
	} else {
		w.e.put64(uint64(*p))
	}
}

// Str visits a string: a u32 length prefix, then the bytes. On load the
// prefix is checked against the bytes present before any is copied.
func (w Walker) Str(p *string) {
	if w.d != nil {
		*p = string(w.d.take(int(w.d.get32())))
		return
	}
	if len(*p) > math.MaxUint32 {
		w.e.Fail(fmt.Errorf("snap: string of %d bytes exceeds u32 length prefix", len(*p)))
		return
	}
	w.e.put32(uint32(len(*p)))
	w.e.raw(*p)
}

// Len visits the u32 element count that precedes a hand-walked list: on save
// it writes n and returns it, on load it returns the count the snapshot
// claims. That claim is untrusted: bound it before allocating for it, and
// stop the element loop on Err.
func (w Walker) Len(n int) int {
	if w.d != nil {
		return int(w.d.get32())
	}
	w.e.put32(uint32(n))
	return n
}

// F64s visits a counted float64 slice. A load decodes into the destination's
// capacity, growing it only when the snapshot holds more; a nil destination
// stays nil at a zero count.
func (w Walker) F64s(p *[]float64) {
	s := counted8(w, p, "float64")
	if w.d != nil {
		for i := range s {
			s[i] = math.Float64frombits(w.d.get64())
		}
		return
	}
	for _, x := range s {
		w.e.put64(math.Float64bits(x))
	}
}

// I64s visits a counted int64 slice, loading as F64s does.
func (w Walker) I64s(p *[]int64) {
	s := counted8(w, p, "int64")
	if w.d != nil {
		for i := range s {
			s[i] = int64(w.d.get64())
		}
		return
	}
	for _, x := range s {
		w.e.put64(uint64(x))
	}
}

// Ints visits a counted int slice, each element carried as int64.
func (w Walker) Ints(p *[]int) {
	s := counted8(w, p, "int")
	if w.d != nil {
		for i := range s {
			s[i] = int(int64(w.d.get64()))
		}
		return
	}
	for _, x := range s {
		w.e.put64(uint64(int64(x)))
	}
}

// counted8 visits the u32 count of a slice whose elements are 8 bytes each
// on the wire, and returns the slice to visit them in. A load checks the
// count against the payload left before it allocates, and reuses the
// destination's capacity.
func counted8[T any](w Walker, p *[]T, elem string) []T {
	if w.d == nil {
		w.e.put32(uint32(len(*p)))
		return *p
	}
	n := w.d.count(8, elem)
	*p = slices.Grow((*p)[:0], n)[:n]
	return *p
}

// FixedF64s visits a counted float64 slice whose length the rebuild fixes
// (an array, or a slice sized by configuration). A snapshot with a different
// count fails the load, naming what, before an element is overwritten.
func (w Walker) FixedF64s(a []float64, what string) {
	if w.SameLen(len(a), what); w.Err() != nil {
		return
	}
	for i := range a {
		w.F64(&a[i])
	}
}

// FixedI64s visits a counted int64 slice of fixed length, as FixedF64s does.
func (w Walker) FixedI64s(a []int64, what string) {
	if w.SameLen(len(a), what); w.Err() != nil {
		return
	}
	for i := range a {
		w.I64(&a[i])
	}
}

// The Same visits carry configuration the rebuild already fixed: the value is
// written on save, and on load the snapshot's copy must equal the rebuilt one
// or the load fails naming what. A snapshot is only ever overlaid onto the
// topology it was taken from. The message is built on that failure alone.

// SameLen is the Same visit for a u32 element count.
func (w Walker) SameLen(n int, what string) {
	if got := w.Len(n); got != n {
		w.mismatch(what, got, n)
	}
}

// SameInt is the Same visit for an int.
func (w Walker) SameInt(v int, what string) {
	got := v
	if w.Int(&got); got != v {
		w.mismatch(what, got, v)
	}
}

// SameI64 is the Same visit for an int64.
func (w Walker) SameI64(v int64, what string) {
	got := v
	if w.I64(&got); got != v {
		w.mismatch(what, got, v)
	}
}

// SameF64 is the Same visit for a float64.
func (w Walker) SameF64(v float64, what string) {
	got := v
	if w.F64(&got); got != v {
		w.mismatch(what, got, v)
	}
}

// SameDur is the Same visit for a time.Duration.
func (w Walker) SameDur(v time.Duration, what string) {
	got := v
	if w.Dur(&got); got != v {
		w.mismatch(what, got, v)
	}
}

// mismatch fails a load whose snapshot disagrees with the rebuild. A decoder
// that had already failed handed back a zero, not the snapshot's value, and
// keeps its first error.
func (w Walker) mismatch(what string, got, want any) {
	if w.d != nil && w.d.err == nil {
		w.d.Fail(fmt.Errorf("%s: snapshot has %v, rebuild has %v", what, got, want))
	}
}
