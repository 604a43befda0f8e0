package snap

import (
	"runtime"
	"testing"
)

// decodeScript is every Decoder read primitive. Each entry reports how many
// bytes of result it handed back, which can never exceed what it consumed.
var decodeScript = []struct {
	name string
	run  func(*Decoder) int
}{
	{"Expect", func(d *Decoder) int { d.Expect("section"); return 0 }},
	{"U8", func(d *Decoder) int { d.U8(); return 1 }},
	{"U32", func(d *Decoder) int { d.U32(); return 4 }},
	{"U64", func(d *Decoder) int { d.U64(); return 8 }},
	{"I64", func(d *Decoder) int { d.I64(); return 8 }},
	{"Int", func(d *Decoder) int { d.Int(); return 8 }},
	{"Bool", func(d *Decoder) int { d.Bool(); return 1 }},
	{"F64", func(d *Decoder) int { d.F64(); return 8 }},
	{"Dur", func(d *Decoder) int { d.Dur(); return 8 }},
	{"Bytes", func(d *Decoder) int { return len(d.Bytes()) }},
	{"Str", func(d *Decoder) int { return len(d.Str()) }},
	{"I64s", func(d *Decoder) int { return 8 * len(d.I64s()) }},
	{"F64s", func(d *Decoder) int { return 8 * len(d.F64s()) }},
}

// FuzzSnapDecode aims arbitrary payload bytes at the Decoder. The payload is
// framed with a correct header and CRC first, so the checksum cannot shield
// the primitives from hostile input the way it shields them from bit rot.
// The script then runs once from every starting primitive — each gets a turn
// at the raw bytes before a sticky error can silence it. Nothing may panic, a
// read may not return more than it consumed, a failed decoder may not
// consume at all, and a pass may not allocate more than a small multiple of
// the input: a length prefix is a claim about bytes present, never a size to
// allocate on trust.
func FuzzSnapDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(wellFormedScriptPayload())
	f.Fuzz(func(t *testing.T, payload []byte) {
		framed, err := (&Encoder{buf: payload}).Encode(Version)
		if err != nil {
			t.Fatal(err)
		}
		budget := uint64(2*len(framed) + 8<<10)
		var before, after runtime.MemStats
		for start := range decodeScript {
			runtime.ReadMemStats(&before)
			d, err := Decode(framed, Version)
			if err != nil {
				t.Fatalf("correctly framed payload rejected: %v", err)
			}
			for i := range decodeScript {
				op := decodeScript[(start+i)%len(decodeScript)]
				failed := d.Err() != nil
				had := d.Remaining()
				got := op.run(d)
				used := had - d.Remaining()
				switch {
				case used < 0 || d.Remaining() < 0:
					t.Fatalf("%s moved the offset from %d remaining to %d", op.name, had, d.Remaining())
				case failed && used != 0:
					t.Fatalf("%s consumed %d bytes on an already failed decoder", op.name, used)
				case d.Err() == nil && got > used:
					t.Fatalf("%s returned %d bytes having consumed %d", op.name, got, used)
				}
			}
			if err := d.Done(); err == nil && d.Remaining() != 0 {
				t.Fatalf("Done accepted %d trailing bytes", d.Remaining())
			}
			runtime.ReadMemStats(&after)
			if n := after.TotalAlloc - before.TotalAlloc; n > budget {
				t.Fatalf("decoding %d payload bytes from %s allocated %d bytes", len(payload), decodeScript[start].name, n)
			}
		}
	})
}

// wellFormedScriptPayload is a payload the script decodes to the end from
// its first entry, so the fuzzer starts with one input that reaches every
// primitive's success path.
func wellFormedScriptPayload() []byte {
	e := NewEncoder()
	e.Tag("section")
	e.U8(1)
	e.U32(2)
	e.U64(3)
	e.I64(-4)
	e.Int(5)
	e.Bool(true)
	e.F64(6.5)
	e.Dur(7)
	e.Bytes([]byte{8, 9})
	e.Str("ten")
	e.I64s([]int64{11, 12})
	e.F64s([]float64{13})
	return e.buf
}
