package trace

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func sample() *Trace {
	return &Trace{
		Name:     "sample",
		Duration: ms(100),
		Ops: []Opportunity{
			{At: ms(0), Bytes: 1500},
			{At: ms(10), Bytes: 3000},
			{At: ms(10), Bytes: 1500},
			{At: ms(55), Bytes: 4500},
		},
	}
}

func TestValidate(t *testing.T) {
	if err := sample().Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	bad := sample()
	bad.Ops[2].At = ms(5)
	if bad.Validate() == nil {
		t.Error("out-of-order ops accepted")
	}
	bad = sample()
	bad.Ops[0].Bytes = -1
	if bad.Validate() == nil {
		t.Error("negative size accepted")
	}
	bad = sample()
	bad.Ops[3].At = ms(200)
	if bad.Validate() == nil {
		t.Error("op beyond duration accepted")
	}
	bad = sample()
	bad.Ops[0].At = -ms(1)
	if bad.Validate() == nil {
		t.Error("negative time accepted")
	}
	bad = sample()
	bad.Duration = -ms(1)
	if bad.Validate() == nil {
		t.Error("negative duration accepted")
	}
}

func TestTotalsAndMean(t *testing.T) {
	tr := sample()
	if got := tr.TotalBytes(); got != 10500 {
		t.Fatalf("TotalBytes = %d, want 10500", got)
	}
	want := 10500.0 * 8 / 0.1 / 1e6
	if got := tr.MeanMbps(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("MeanMbps = %v, want %v", got, want)
	}
	empty := &Trace{}
	if empty.MeanMbps() != 0 {
		t.Error("zero-duration trace should have 0 Mbps")
	}
}

func TestWindowedMbps(t *testing.T) {
	tr := sample()
	w := tr.WindowedMbps(ms(50))
	if len(w) != 2 {
		t.Fatalf("windows = %d, want 2", len(w))
	}
	// Window 0 has 6000 bytes over 50 ms.
	want0 := 6000.0 * 8 / 0.05 / 1e6
	if math.Abs(w[0]-want0) > 1e-12 {
		t.Fatalf("window 0 = %v, want %v", w[0], want0)
	}
	if tr.WindowedMbps(0) != nil {
		t.Error("zero window should return nil")
	}
}

func TestScale(t *testing.T) {
	tr := sample()
	s := tr.Scale(0.5)
	if s.Ops[0].Bytes != 750 {
		t.Fatalf("scaled size = %d, want 750", s.Ops[0].Bytes)
	}
	if s.TotalBytes() != 5250 {
		t.Fatalf("scaled total = %d", s.TotalBytes())
	}
	z := tr.Scale(-1)
	for _, op := range z.Ops {
		if op.Bytes != 0 {
			t.Fatal("negative scale should clamp to 0")
		}
	}
}

func TestRoundTrip(t *testing.T) {
	tr := sample()
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != tr.Name || got.Duration != tr.Duration || len(got.Ops) != len(tr.Ops) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	for i := range tr.Ops {
		if got.Ops[i] != tr.Ops[i] {
			t.Fatalf("op %d: got %+v, want %+v", i, got.Ops[i], tr.Ops[i])
		}
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"1,2,3\n",
		"abc,100\n",
		"100,xyz\n",
		"# trace \"x\" duration_us=-5\n0,10\n", // negative duration
		"18446744073709552,1\n",                // µs → ns overflows
		"9223372036854775,1\n",                 // inferred duration overflows
		"# duration_us=9223372036854776\n",     // header µs → ns overflows
		"# duration_us=1ms\n",                  // header not a count
	}
	for _, c := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Errorf("Read(%q) should fail", c)
		}
	}
}

func TestReadInfersDuration(t *testing.T) {
	tr, err := Read(strings.NewReader("1000,100\n2500,200\n"))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Duration != 3*time.Millisecond {
		t.Fatalf("inferred duration = %v, want 3ms", tr.Duration)
	}
}

func TestSaveLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.trace")
	tr := sample()
	if err := tr.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalBytes() != tr.TotalBytes() {
		t.Fatal("Save/Load mismatch")
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("loading missing file should error")
	}
}

func TestMahimahiRoundTrip(t *testing.T) {
	in := "0\n0\n5\n12\n12\n12\n"
	tr, err := ReadMahimahi(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Ops) != 6 {
		t.Fatalf("ops = %d, want 6", len(tr.Ops))
	}
	if tr.TotalBytes() != 6*MTU {
		t.Fatalf("total = %d", tr.TotalBytes())
	}
	if tr.Duration != 13*time.Millisecond {
		t.Fatalf("duration = %v", tr.Duration)
	}
	var buf bytes.Buffer
	if err := tr.WriteMahimahi(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != in {
		t.Fatalf("round trip: got %q, want %q", buf.String(), in)
	}
}

func TestMahimahiRejectsDisorder(t *testing.T) {
	cases := []string{
		"5\n3\n", // decreasing timestamps
		"x\n",
		"-1\n",            // negative timestamp
		"9223372036855\n", // ms → ns overflows
		"9223372036854\n", // inferred duration overflows
	}
	for _, c := range cases {
		if _, err := ReadMahimahi(strings.NewReader(c)); err == nil {
			t.Errorf("ReadMahimahi(%q) should fail", c)
		}
	}
}

func TestMahimahiWriteSplitsLargeBursts(t *testing.T) {
	tr := &Trace{Duration: ms(10), Ops: []Opportunity{{At: ms(1), Bytes: 4000}}}
	var buf bytes.Buffer
	if err := tr.WriteMahimahi(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Fields(buf.String())
	if len(lines) != 3 { // ceil(4000/1500)
		t.Fatalf("slots = %d, want 3", len(lines))
	}
}

// Property: CSV round-trip preserves every opportunity exactly.
func TestQuickRoundTrip(t *testing.T) {
	f := func(raw []uint16) bool {
		tr := &Trace{Name: "q"}
		var at time.Duration
		for _, v := range raw {
			at += time.Duration(v%1000) * time.Microsecond
			tr.Ops = append(tr.Ops, Opportunity{At: at, Bytes: int(v)})
		}
		tr.Duration = at + time.Millisecond
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		if len(got.Ops) != len(tr.Ops) {
			return false
		}
		for i := range tr.Ops {
			if got.Ops[i] != tr.Ops[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
