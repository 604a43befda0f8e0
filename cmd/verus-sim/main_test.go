package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"
)

// simOutput runs the command with args and returns what it printed.
func simOutput(t *testing.T, args ...string) string {
	t.Helper()
	var out, errBuf bytes.Buffer
	if code := run(args, &out, &errBuf); code != 0 {
		t.Fatalf("%v: exit %d, stderr: %s", args, code, errBuf.String())
	}
	return out.String()
}

// TestVerusSimPin digests the command's output in both link modes. The
// digests were taken before the fixed-rate path moved off FixedRun onto the
// shared dumbbell builder; they must never move without an intended output
// change.
func TestVerusSimPin(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"fixed-verus", []string{"-proto", "verus", "-flows", "2", "-fixed", "20", "-dur", "10s", "-seed", "3"}, "bb2467dc777123ae83547867598c09fb30d9e0ec4c1a82ab7c7bfebd7e31b171"},
		{"fixed-cubic-queue", []string{"-proto", "cubic", "-flows", "3", "-fixed", "12", "-queue", "300000", "-dur", "10s", "-seed", "4"}, "a70047b062c2965c80333404f0f3c806ba6e8874906ddaba16a3f6f1ecec1882"},
		{"trace-verus-lte", []string{"-proto", "verus", "-flows", "2", "-tech", "lte", "-scenario", "city-driving", "-dur", "10s", "-seed", "3"}, "f1f790ae78a447e0eca5238a171c53717713278cf8c390d07a313d71b46c8c4d"},
		{"trace-cubic-red", []string{"-proto", "cubic", "-flows", "3", "-red", "-dur", "10s", "-seed", "5"}, "d4b95be4b8e162e40b1ea40a57ed56a1c1f5facd96531f256f7083b5eb857ebf"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out := simOutput(t, tc.args...)
			if got := fmt.Sprintf("%x", sha256.Sum256([]byte(out))); got != tc.want {
				t.Errorf("%v digests %s, want %s; output:\n%s", tc.args, got, tc.want, out)
			}
		})
	}
}

// TestVerusSimExitCodes checks that every flag naming no valid scenario is
// rejected with exit 2 and a message, before any simulation runs.
func TestVerusSimExitCodes(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string // fragment of the stderr message
	}{
		{"zero-duration", []string{"-dur", "0"}, "-dur"},
		{"negative-flows", []string{"-flows", "-1"}, "-flows"},
		{"zero-flows", []string{"-flows", "0"}, "-flows"},
		{"unknown-tech", []string{"-tech", "5g"}, "unknown technology"},
		{"zero-queue", []string{"-queue", "0"}, "-queue"},
		{"negative-fixed", []string{"-fixed", "-5"}, "-fixed"},
		{"negative-mbps", []string{"-mbps", "-1"}, "-mbps"},
		{"unknown-proto", []string{"-proto", "bbr"}, "unknown protocol"},
		{"unknown-scenario", []string{"-scenario", "moon"}, "unknown scenario"},
		{"unknown-flag", []string{"-no-such-flag"}, "no-such-flag"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out, errBuf bytes.Buffer
			if code := run(tc.args, &out, &errBuf); code != 2 {
				t.Errorf("%v: exit %d, want 2", tc.args, code)
			}
			if !strings.Contains(errBuf.String(), tc.want) {
				t.Errorf("%v: stderr %q does not mention %q", tc.args, errBuf.String(), tc.want)
			}
			if out.Len() != 0 {
				t.Errorf("%v: printed %q before rejecting", tc.args, out.String())
			}
		})
	}
}

// TestVerusSimFixedHonoursRED checks that -red selects the RED queue on the
// fixed link too, where it was once silently ignored.
func TestVerusSimFixedHonoursRED(t *testing.T) {
	args := []string{"-proto", "cubic", "-flows", "3", "-fixed", "12", "-dur", "10s", "-seed", "4"}
	if simOutput(t, args...) == simOutput(t, append(args, "-red")...) {
		t.Error("-red left the fixed-link run unchanged")
	}
}
