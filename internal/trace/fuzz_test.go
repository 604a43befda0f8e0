package trace

import (
	"bytes"
	"io"
	"slices"
	"testing"
)

// checkAccepted holds a trace a reader accepted to the reader's contract: it
// passes Validate, its Duration is not negative, and writing it with write
// and reading it back with read gives the same Ops and Duration.
func checkAccepted(t *testing.T, tr *Trace, write func(*Trace, io.Writer) error, read func(io.Reader) (*Trace, error)) {
	t.Helper()
	if err := tr.Validate(); err != nil {
		t.Fatalf("accepted a trace that fails Validate: %v", err)
	}
	if tr.Duration < 0 {
		t.Fatalf("accepted a negative duration %v", tr.Duration)
	}
	var buf bytes.Buffer
	if err := write(tr, &buf); err != nil {
		t.Fatalf("cannot write what was read: %v", err)
	}
	back, err := read(&buf)
	if err != nil {
		t.Fatalf("cannot read back what was written: %v", err)
	}
	if !slices.Equal(back.Ops, tr.Ops) || back.Duration != tr.Duration {
		t.Fatalf("read %v over %v\nread back %v over %v", tr.Ops, tr.Duration, back.Ops, back.Duration)
	}
}

// FuzzRead aims arbitrary bytes at the CSV reader. It may not panic, and
// whatever it accepts must hold to checkAccepted's contract through Write.
func FuzzRead(f *testing.F) {
	var buf bytes.Buffer
	if err := sample().Write(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		if tr, err := Read(bytes.NewReader(data)); err == nil {
			checkAccepted(t, tr, (*Trace).Write, Read)
		}
	})
}

// FuzzReadMahimahi is FuzzRead for the mahimahi reader, through
// WriteMahimahi.
func FuzzReadMahimahi(f *testing.F) {
	f.Add([]byte("0\n0\n5\n12\n12\n12\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if tr, err := ReadMahimahi(bytes.NewReader(data)); err == nil {
			checkAccepted(t, tr, (*Trace).WriteMahimahi, ReadMahimahi)
		}
	})
}
