package snap

import (
	"bytes"
	"runtime"
	"testing"
	"time"
)

// visitScript is every Walker visit. Each entry reports how many bytes of
// result a load handed back, which can never exceed what it consumed. Run
// over a Save walker, the script writes a payload its own load accepts:
// each Same and Fixed visit is handed the value it saved.
var visitScript = []struct {
	name string
	run  func(Walker) int
}{
	{"Tag", func(w Walker) int { w.Tag("section"); return 0 }},
	{"U8", func(w Walker) int { v := uint8(1); w.U8(&v); return 1 }},
	{"Len", func(w Walker) int { w.Len(2); return 4 }},
	{"U64", func(w Walker) int { v := uint64(3); w.U64(&v); return 8 }},
	{"I64", func(w Walker) int { v := int64(-4); w.I64(&v); return 8 }},
	{"Int", func(w Walker) int { v := 5; w.Int(&v); return 8 }},
	{"Bool", func(w Walker) int { v := true; w.Bool(&v); return 1 }},
	{"F64", func(w Walker) int { v := 6.5; w.F64(&v); return 8 }},
	{"Dur", func(w Walker) int { v := 7 * time.Nanosecond; w.Dur(&v); return 8 }},
	{"Str", func(w Walker) int { v := "ten"; w.Str(&v); return len(v) }},
	{"I64s", func(w Walker) int { v := []int64{11, 12}; w.I64s(&v); return 8 * len(v) }},
	{"F64s", func(w Walker) int { v := []float64{13}; w.F64s(&v); return 8 * len(v) }},
	{"Ints", func(w Walker) int { v := []int{14, 15}; w.Ints(&v); return 8 * len(v) }},
	{"FixedF64s", func(w Walker) int { a := []float64{16}; w.FixedF64s(a, "fixed float64s"); return 8 * len(a) }},
	{"FixedI64s", func(w Walker) int { a := []int64{17, 18}; w.FixedI64s(a, "fixed int64s"); return 8 * len(a) }},
	{"SameLen", func(w Walker) int { w.SameLen(19, "same len"); return 0 }},
	{"SameInt", func(w Walker) int { w.SameInt(20, "same int"); return 0 }},
	{"SameI64", func(w Walker) int { w.SameI64(-21, "same int64"); return 0 }},
	{"SameF64", func(w Walker) int { w.SameF64(22.5, "same float64"); return 0 }},
	{"SameDur", func(w Walker) int { w.SameDur(23, "same duration"); return 0 }},
}

// FuzzSnapDecode aims arbitrary payload bytes at the Walker's load visits.
// The payload is framed with a correct header and CRC first, so the checksum
// cannot shield the visits from hostile input the way it shields them from
// bit rot. The script then runs once from every starting visit — each gets a
// turn at the raw bytes before a sticky error can silence it. Nothing may
// panic, a visit may not return more than it consumed, a failed decoder may
// not consume at all, and a pass may not allocate more than twice the input
// plus 8 KB: a length prefix is a claim about bytes present, never a size to
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
		for start := range visitScript {
			runtime.ReadMemStats(&before)
			d, err := Decode(framed, Version)
			if err != nil {
				t.Fatalf("correctly framed payload rejected: %v", err)
			}
			w := Load(d)
			for i := range visitScript {
				op := visitScript[(start+i)%len(visitScript)]
				failed := d.Err() != nil
				had := d.Remaining()
				got := op.run(w)
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
				t.Fatalf("decoding %d payload bytes from %s allocated %d bytes", len(payload), visitScript[start].name, n)
			}
		}
	})
}

// wellFormedScriptPayload is the script's own save: a payload the script
// loads to the end from its first entry, so the fuzzer starts with one input
// that reaches every visit's success path.
func wellFormedScriptPayload() []byte {
	e := NewEncoder()
	w := Save(e)
	for _, op := range visitScript {
		op.run(w)
	}
	return bytes.Join(e.parts(), nil)
}
