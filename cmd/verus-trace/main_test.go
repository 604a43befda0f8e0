package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/trace"
)

// runOK runs the command and fails the test on a non-zero exit.
func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var out, errBuf bytes.Buffer
	if code := run(args, &out, &errBuf); code != 0 {
		t.Fatalf("%v: exit %d, stderr: %s", args, code, errBuf.String())
	}
	return out.String()
}

func TestGenInfoConvRoundTrip(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "chan.trace")
	mahi := filepath.Join(dir, "chan.mahi")
	back := filepath.Join(dir, "back.trace")

	if s := runOK(t, "gen", "-tech", "lte", "-scenario", "city-driving", "-dur", "3s", "-seed", "5", "-out", csv); !strings.Contains(s, "wrote "+csv) {
		t.Errorf("gen summary: %s", s)
	}
	s := runOK(t, "info", "-in", csv)
	for _, frag := range []string{"duration: 3s", "opportunities:", "bursts:", "over 30 windows"} {
		if !strings.Contains(s, frag) {
			t.Errorf("info missing %q:\n%s", frag, s)
		}
	}
	runOK(t, "conv", "-in", csv, "-out", mahi, "-format", "mahimahi")
	runOK(t, "conv", "-in", mahi, "-informat", "mahimahi", "-out", back, "-format", "csv")

	orig, err := trace.Load(csv)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(mahi)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	viaMahi, err := trace.ReadMahimahi(f)
	if err != nil {
		t.Fatal(err)
	}
	got, err := trace.Load(back)
	if err != nil {
		t.Fatal(err)
	}
	// mahimahi → csv is lossless; csv → mahimahi splits each opportunity
	// into whole MTU slots on its millisecond.
	if !reflect.DeepEqual(got.Ops, viaMahi.Ops) || got.Duration != viaMahi.Duration {
		t.Fatalf("mahimahi → csv changed the trace: %d ops over %v, want %d over %v",
			len(got.Ops), got.Duration, len(viaMahi.Ops), viaMahi.Duration)
	}
	slots := 0
	for _, op := range orig.Ops {
		slots += (op.Bytes + trace.MTU - 1) / trace.MTU
	}
	if len(got.Ops) != slots || slots == 0 {
		t.Fatalf("round trip has %d MTU slots, want %d", len(got.Ops), slots)
	}
}

func TestInfoZeroWindowFails(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "chan.trace")
	runOK(t, "gen", "-dur", "1s", "-out", csv)
	var out, errBuf bytes.Buffer
	if code := run([]string{"info", "-in", csv, "-window", "0"}, &out, &errBuf); code != 1 {
		t.Fatalf("info -window 0: exit %d, want 1 (stderr: %s)", code, errBuf.String())
	}
	if !strings.Contains(errBuf.String(), "no throughput windows") {
		t.Errorf("stderr: %s", errBuf.String())
	}
}

func TestUsageErrorsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"frobnicate"},
		{"info"},
		{"conv"},
		{"gen", "-no-such-flag"},
		{"gen", "-tech", "5g"},
		{"gen", "-operator", "z"},
		{"gen", "-scenario", "moon"},
	} {
		var out, errBuf bytes.Buffer
		if code := run(args, &out, &errBuf); code != 2 {
			t.Errorf("args %v: exit %d, want 2", args, code)
		}
		if out.Len() != 0 {
			t.Errorf("args %v: wrote %d bytes to stdout, want none", args, out.Len())
		}
	}
}
