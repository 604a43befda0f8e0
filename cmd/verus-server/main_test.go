package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestVerusServerExitCodes checks that a bad flag exits 2 and a listener that
// cannot start exits 1, each with a message and nothing on stdout.
func TestVerusServerExitCodes(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		code int
		want string // fragment of the stderr message
	}{
		{"zero-report", []string{"-report", "0"}, 2, "-report"},
		{"negative-report", []string{"-report", "-1s"}, 2, "-report"},
		{"unknown-flag", []string{"-no-such-flag"}, 2, "no-such-flag"},
		{"bad-listen", []string{"-listen", "127.0.0.1:99999"}, 1, "invalid port"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out, errBuf bytes.Buffer
			if code := run(tc.args, &out, &errBuf); code != tc.code {
				t.Errorf("%v: exit %d, want %d", tc.args, code, tc.code)
			}
			if !strings.Contains(errBuf.String(), tc.want) {
				t.Errorf("%v: stderr %q does not mention %q", tc.args, errBuf.String(), tc.want)
			}
			if out.Len() != 0 {
				t.Errorf("%v: printed %q before failing", tc.args, out.String())
			}
		})
	}
}
