package main

import (
	"bytes"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/transport"
)

// TestVerusClientExitCodes checks that every bad flag is rejected with exit 2
// and a message, before any socket is opened.
func TestVerusClientExitCodes(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string // fragment of the stderr message
	}{
		{"unknown-proto", []string{"-proto", "bbr"}, "unknown protocol"},
		{"zero-duration", []string{"-dur", "0"}, "-dur"},
		{"negative-duration", []string{"-dur", "-1s"}, "-dur"},
		{"zero-report", []string{"-report", "0"}, "-report"},
		{"negative-report", []string{"-report", "-1s"}, "-report"},
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

// TestVerusClientSmoke runs a short transfer against an in-process receiver
// and checks the periodic and final reports.
func TestVerusClientSmoke(t *testing.T) {
	r, err := transport.NewReceiver("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var out, errBuf bytes.Buffer
	if code := run([]string{"-server", r.Addr().String(), "-dur", "300ms", "-report", "100ms"}, &out, &errBuf); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errBuf.String())
	}
	txLine := regexp.MustCompile(`^tx: sent=\d+ acked=\d+ loss=\d+ to=\d+  [0-9.]+ Mbps  rtt p50=[0-9.]+ms p95=[0-9.]+ms$`)
	doneLine := regexp.MustCompile(`^done: (\d+) acked \([0-9.]+ Mbps goodput\), rtt mean [0-9.]+ ms$`)
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if !strings.HasPrefix(lines[0], "verus-client: verus") || !strings.Contains(lines[0], " -> "+r.Addr().String()) {
		t.Errorf("first line %q is not the banner", lines[0])
	}
	tx := 0
	for _, l := range lines[1 : len(lines)-1] {
		if !txLine.MatchString(l) {
			t.Errorf("report line %q is not a tx: line", l)
		}
		tx++
	}
	if tx == 0 {
		t.Errorf("no tx: line in\n%s", out.String())
	}
	m := doneLine.FindStringSubmatch(lines[len(lines)-1])
	if m == nil {
		t.Fatalf("last line %q is not a done: line", lines[len(lines)-1])
	}
	if acked, _ := strconv.Atoi(m[1]); acked == 0 {
		t.Errorf("nothing acked over loopback: %q", m[0])
	}
}

// TestVerusClientReportsStall closes the receiver once the transfer is
// under way and checks that the sender's stall report reaches stderr. The
// report needs three consecutive RTOs. Loopback's RTT keeps each one on the
// 200 ms floor, so it comes about 0.6 s after the last ack.
func TestVerusClientReportsStall(t *testing.T) {
	r, err := transport.NewReceiver("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	time.AfterFunc(50*time.Millisecond, func() { r.Close() })
	var out, errBuf bytes.Buffer
	if code := run([]string{"-server", r.Addr().String(), "-dur", "1200ms", "-report", "1s"}, &out, &errBuf); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errBuf.String())
	}
	if !strings.Contains(errBuf.String(), "verus-client: transport: flow 0 stalled") {
		t.Errorf("stderr does not report the stall:\n%s", errBuf.String())
	}
}
