package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

// CLI-level checkpoint/resume contract: flag validation exits 2 before any
// work, a bad snapshot fails a resume closed with exit 2, and the
// crash-injection harness — SIGKILL a child mid-metro-run, resume from its
// last checkpoint — reproduces the uninterrupted run byte-for-byte.

var benchBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "verus-bench-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer os.RemoveAll(dir)
	benchBin = filepath.Join(dir, "verus-bench")
	// The children deliberately run without -race instrumentation: they are
	// separate processes exercising the CLI surface, not this test binary.
	if out, err := exec.Command("go", "build", "-o", benchBin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building verus-bench: %v\n%s", err, out)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

// runBench runs the built binary and returns stdout, stderr, and the exit
// code (-1 if killed by a signal).
func runBench(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(benchBin, args...)
	var stdout, stderr strings.Builder
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	code := 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("running %v: %v", args, err)
		}
		code = ee.ExitCode()
	}
	return stdout.String(), stderr.String(), code
}

// quickDigestPath pins the quick reproduction's stdout: one SHA-256 per
// "==== ID" section, with the "[<id> took …]" timing lines dropped. It covers
// the figures no golden digest covers (fig1, fig4, predictors) and the banner
// loop itself. After an intentional output change, replace the file with the
// computed digests the failing test logs.
const quickDigestPath = "testdata/quick_digests.txt"

// sectionDigests splits a verus-bench stdout into its "==== ID" sections and
// returns "ID sha256" per section, in output order.
func sectionDigests(stdout string) []string {
	var out []string
	id := ""
	h := sha256.New()
	flush := func() {
		if id != "" {
			out = append(out, fmt.Sprintf("%s %x", id, h.Sum(nil)))
		}
	}
	for _, line := range strings.SplitAfter(stdout, "\n") {
		if strings.HasPrefix(line, "[") && strings.Contains(line, " took ") {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "==== "); ok {
			flush()
			id, _, _ = strings.Cut(rest, " ")
			h.Reset()
		}
		h.Write([]byte(line))
	}
	flush()
	return out
}

func TestQuickOutputPinned(t *testing.T) {
	var got []string
	for _, args := range [][]string{{"-quick", "-parallel", "0"}, {"-quick", "-metro"}} {
		stdout, stderr, code := runBench(t, args...)
		if code != 0 {
			t.Fatalf("args %v: exit code %d (stderr: %s)", args, code, stderr)
		}
		got = append(got, sectionDigests(stdout)...)
	}
	raw, err := os.ReadFile(quickDigestPath)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if strings.Join(got, "\n") == strings.Join(want, "\n") {
		return
	}
	for i := 0; i < len(got) || i < len(want); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Errorf("section %d: computed %q, committed %q", i, g, w)
		}
	}
	t.Logf("computed %s:\n%s", quickDigestPath, strings.Join(got, "\n"))
}

func TestFlagValidationExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"shards-without-metro", []string{"-shards", "2"}},
		{"churn-without-metro", []string{"-churn", "0.1"}},
		{"checkpoint-without-metro", []string{"-checkpoint", "snap.bin"}},
		{"resume-without-metro", []string{"-resume", "snap.bin"}},
		{"crash-after-without-metro", []string{"-crash-after", "1"}},
		{"resume-with-shards", []string{"-metro", "-resume", "snap.bin", "-shards", "2"}},
		{"resume-with-churn", []string{"-metro", "-resume", "snap.bin", "-churn", "0.2"}},
		{"crash-after-without-checkpoint", []string{"-metro", "-crash-after", "1"}},
		{"checkpoint-every-zero", []string{"-metro", "-checkpoint", "snap.bin", "-checkpoint-every", "0s"}},
		{"checkpoint-every-without-metro", []string{"-quick", "-only", "fig1", "-checkpoint-every", "2s"}},
		{"checkpoint-every-without-checkpoint", []string{"-quick", "-metro", "-checkpoint-every", "2s"}},
		{"shards-below-range", []string{"-metro", "-shards", "-2"}},
		{"churn-above-range", []string{"-metro", "-churn", "1.5"}},
		{"churn-nan", []string{"-metro", "-churn", "NaN"}},
		{"unknown-only", []string{"-only", "fig99"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stdout, stderr, code := runBench(t, tc.args...)
			if code != 2 {
				t.Fatalf("args %v: exit code %d, want 2 (stderr: %s)", tc.args, code, stderr)
			}
			if !strings.Contains(stderr, "verus-bench:") {
				t.Errorf("args %v: stderr has no diagnostic: %q", tc.args, stderr)
			}
			if strings.Contains(stdout, "====") {
				t.Errorf("args %v: an experiment ran before validation: %q", tc.args, stdout)
			}
		})
	}
}

func TestResumeFromBadSnapshotExitsTwo(t *testing.T) {
	dir := t.TempDir()
	garbage := filepath.Join(dir, "garbage.bin")
	if err := os.WriteFile(garbage, []byte("definitely not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, path := range map[string]string{
		"garbage": garbage,
		"missing": filepath.Join(dir, "absent.bin"),
	} {
		stdout, stderr, code := runBench(t, "-quick", "-metro", "-resume", path)
		if code != 2 {
			t.Fatalf("%s snapshot: exit code %d, want 2 (stderr: %s)", name, code, stderr)
		}
		if !strings.Contains(stderr, "verus-bench: metro:") {
			t.Errorf("%s snapshot: stderr lacks the metro diagnostic: %q", name, stderr)
		}
		if strings.Contains(stdout, "flows") {
			t.Errorf("%s snapshot: partial resume produced output: %q", name, stdout)
		}
	}
}

// metroRender extracts the metro section of a verus-bench stdout.
func metroRender(t *testing.T, stdout string) string {
	t.Helper()
	_, rest, ok := strings.Cut(stdout, "==== METRO")
	if !ok {
		t.Fatalf("no metro section in output:\n%s", stdout)
	}
	_, rest, ok = strings.Cut(rest, "\n")
	if !ok {
		t.Fatalf("truncated metro header in output:\n%s", stdout)
	}
	render, _, ok := strings.Cut(rest, "[metro took")
	if !ok {
		t.Fatalf("no metro footer in output:\n%s", stdout)
	}
	return render
}

func TestCrashInjectionResumeMatchesStraightRun(t *testing.T) {
	if testing.Short() {
		t.Skip("crash harness runs three quick metro sweeps")
	}
	straightOut, stderr, code := runBench(t, "-quick", "-metro", "-seed", "7")
	if code != 0 {
		t.Fatalf("straight run failed with %d: %s", code, stderr)
	}
	want := metroRender(t, straightOut)

	snapPath := filepath.Join(t.TempDir(), "crash.bin")
	cmd := exec.Command(benchBin, "-quick", "-metro", "-seed", "7",
		"-checkpoint", snapPath, "-checkpoint-every", "2s", "-crash-after", "2")
	var crashOut strings.Builder
	cmd.Stdout = &crashOut
	cmd.Stderr = &crashOut
	err := cmd.Run()
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("crash run did not die: err=%v output=%s", err, crashOut.String())
	}
	ws, ok := ee.Sys().(syscall.WaitStatus)
	if !ok || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
		t.Fatalf("crash run died of %v, want SIGKILL", ee)
	}
	if _, err := os.Stat(snapPath); err != nil {
		t.Fatalf("crashed run left no checkpoint: %v", err)
	}

	resumeOut, stderr, code := runBench(t, "-quick", "-metro", "-seed", "7", "-resume", snapPath)
	if code != 0 {
		t.Fatalf("resume after crash failed with %d: %s", code, stderr)
	}
	if got := metroRender(t, resumeOut); got != want {
		t.Errorf("resume after SIGKILL diverges from the uninterrupted run:\n-- straight --\n%s\n-- resumed --\n%s", want, got)
	}
}
