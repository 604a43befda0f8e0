package snap

import (
	"fmt"
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

// Tag visits a section marker: written on save, required on load.
func (w Walker) Tag(name string) {
	if w.d != nil {
		w.d.Expect(name)
	} else {
		w.e.Tag(name)
	}
}

// U8 visits one byte.
func (w Walker) U8(p *uint8) {
	if w.d != nil {
		*p = w.d.U8()
	} else {
		w.e.U8(*p)
	}
}

// U64 visits a uint64.
func (w Walker) U64(p *uint64) {
	if w.d != nil {
		*p = w.d.U64()
	} else {
		w.e.U64(*p)
	}
}

// I64 visits an int64.
func (w Walker) I64(p *int64) {
	if w.d != nil {
		*p = w.d.I64()
	} else {
		w.e.I64(*p)
	}
}

// Int visits a platform int, carried as int64.
func (w Walker) Int(p *int) {
	if w.d != nil {
		*p = w.d.Int()
	} else {
		w.e.Int(*p)
	}
}

// Bool visits a bool.
func (w Walker) Bool(p *bool) {
	if w.d != nil {
		*p = w.d.Bool()
	} else {
		w.e.Bool(*p)
	}
}

// F64 visits a float64, bit-exactly.
func (w Walker) F64(p *float64) {
	if w.d != nil {
		*p = w.d.F64()
	} else {
		w.e.F64(*p)
	}
}

// Dur visits a time.Duration.
func (w Walker) Dur(p *time.Duration) {
	if w.d != nil {
		*p = w.d.Dur()
	} else {
		w.e.Dur(*p)
	}
}

// Str visits a string.
func (w Walker) Str(p *string) {
	if w.d != nil {
		*p = w.d.Str()
	} else {
		w.e.Str(*p)
	}
}

// Len visits the u32 element count that precedes a hand-walked list: on save
// it writes n and returns it, on load it returns the count the snapshot
// claims. That claim is untrusted: bound it before allocating for it, and
// stop the element loop on Err.
func (w Walker) Len(n int) int {
	if w.d != nil {
		return int(w.d.U32())
	}
	w.e.U32(uint32(n))
	return n
}

// F64s visits a counted float64 slice. A load decodes into the destination's
// capacity, growing it only when the snapshot holds more; a nil destination
// stays nil at a zero count.
func (w Walker) F64s(p *[]float64) {
	if w.d == nil {
		w.e.F64s(*p)
		return
	}
	n := w.d.count(8, "float64")
	s := slices.Grow((*p)[:0], n)[:n]
	for i := range s {
		s[i] = w.d.F64()
	}
	*p = s
}

// I64s visits a counted int64 slice, loading as F64s does.
func (w Walker) I64s(p *[]int64) {
	if w.d == nil {
		w.e.I64s(*p)
		return
	}
	n := w.d.count(8, "int64")
	s := slices.Grow((*p)[:0], n)[:n]
	for i := range s {
		s[i] = w.d.I64()
	}
	*p = s
}

// Ints visits a counted int slice, each element carried as int64.
func (w Walker) Ints(p *[]int) {
	if w.d == nil {
		w.e.U32(uint32(len(*p)))
		for _, x := range *p {
			w.e.Int(x)
		}
		return
	}
	n := w.d.count(8, "int")
	s := slices.Grow((*p)[:0], n)[:n]
	for i := range s {
		s[i] = w.d.Int()
	}
	*p = s
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
