package transport_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/verus"
)

// Transport-level chaos: the real UDP sender/receiver pair running through
// the faults.Proxy. These tests are the -race half of the chaos suite — the
// netsim sweep proves controller liveness, this one proves the transport's
// goroutines (read loop, event loop, proxy relays) survive outages without
// deadlocking and report degradation instead of wedging silently. They run
// on the host clock in real time, so each waits out its plan's outage.

// closeWithin fails the test if fn does not return within d — the deadlock
// detector for Close paths.
func closeWithin(t *testing.T, what string, d time.Duration, fn func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(d):
		t.Fatalf("%s did not return within %v (goroutine deadlock)", what, d)
	}
}

func TestProxyOutageRecovery(t *testing.T) {
	r, err := transport.NewReceiver("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	start := time.Now()
	plan := &faults.Plan{
		Name:   "test-outage",
		Events: []faults.Event{{Kind: faults.Outage, At: 500 * time.Millisecond, Dur: 700 * time.Millisecond}},
	}
	proxy, err := faults.NewProxy(r.Addr().String(), plan, 1, func() time.Duration { return time.Since(start) })
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	s, err := transport.Dial(proxy.Addr(), verus.New(verus.ResilientConfig()), transport.SenderConfig{})
	if err != nil {
		t.Fatal(err)
	}

	time.Sleep(1200 * time.Millisecond) // through the outage
	duringOutage := s.Stats().Acked
	time.Sleep(2500 * time.Millisecond) // recovery window
	afterRecovery := s.Stats().Acked
	if afterRecovery <= duringOutage {
		t.Fatalf("no ack progress after the outage: %d → %d", duringOutage, afterRecovery)
	}
	if ps := proxy.Stats(); ps.SendDropped == 0 {
		t.Fatal("proxy dropped nothing; the outage never bit")
	}
	closeWithin(t, "sender close", 5*time.Second, s.Close)
	closeWithin(t, "receiver close", 5*time.Second, r.Close)
}

// TestProxyBlackoutStallReport pins graceful degradation: when the path
// goes dark mid-flow, the sender must count a stall and say so on Errors()
// while continuing to probe — and must still close cleanly. Both ends carry
// an observer, whose series and events must tell the same story.
func TestProxyBlackoutStallReport(t *testing.T) {
	r, err := transport.NewReceiver("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	o := obs.NewObserver(obs.NewTracer(0), obs.NewRegistry())
	r.Observe(o, 0, 0)

	start := time.Now()
	plan := &faults.Plan{
		Name:   "test-blackout",
		Events: []faults.Event{{Kind: faults.Outage, At: 300 * time.Millisecond, Dur: 20 * time.Second}},
	}
	proxy, err := faults.NewProxy(r.Addr().String(), plan, 1, func() time.Duration { return time.Since(start) })
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	s, err := transport.Dial(proxy.Addr(), verus.New(verus.ResilientConfig()), transport.SenderConfig{Obs: o})
	if err != nil {
		t.Fatal(err)
	}

	// The stall report needs stallReportAfter=3 consecutive RTOs: with the
	// 200 ms RTO floor and doubling backoff that is ~1.5 s into the
	// blackout. Wait on the Errors channel rather than sleeping blind.
	select {
	case reportErr := <-s.Errors():
		if !strings.Contains(reportErr.Error(), "stalled") {
			t.Fatalf("first degradation report is not a stall: %v", reportErr)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("no stall report within 15 s of a blackout")
	}
	if got := s.Stats().Stalls; got == 0 {
		t.Fatal("Stalls counter still zero after a stall report")
	}
	closeWithin(t, "sender close", 5*time.Second, s.Close)

	reg := o.Registry()
	series := func(name string, kv ...string) int64 {
		return reg.Counter(obs.Labeled(name, kv...)).Value()
	}
	if n := series("transport_stalls_total", "flow", "0", "run", "0"); n < 1 {
		t.Errorf("transport_stalls_total = %d, want >= 1", n)
	}
	if n := series("transport_timeouts_total", "flow", "0", "run", "0"); n < 3 {
		t.Errorf("transport_timeouts_total = %d, want >= 3", n)
	}
	if n := series("transport_rx_packets_total", "run", "0"); n == 0 {
		t.Error("transport_rx_packets_total is 0")
	}
	var handshakeOK, rtos, stalls int
	for _, e := range o.Tracer().Snapshot() {
		switch {
		case e.Kind == obs.KindHandshake && e.Str == "ok":
			handshakeOK++
		case e.Kind == obs.KindRTO:
			rtos++
		case e.Kind == obs.KindStall:
			stalls++
		}
	}
	if handshakeOK != 1 || rtos < 3 || stalls != 1 {
		t.Errorf("traced %d handshake ok, %d RTO and %d stall events; want 1, >= 3 and 1", handshakeOK, rtos, stalls)
	}
}

// TestProxyHandshakeThroughBlackout pins the Dial retry path against a dead
// window: a handshake attempted entirely inside an outage fails with
// ErrHandshakeFailed after its bounded budget.
func TestProxyHandshakeThroughBlackout(t *testing.T) {
	r, err := transport.NewReceiver("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	start := time.Now()
	plan := &faults.Plan{
		Name:   "test-dead-start",
		Events: []faults.Event{{Kind: faults.Outage, At: 0, Dur: 30 * time.Second}},
	}
	proxy, err := faults.NewProxy(r.Addr().String(), plan, 1, func() time.Duration { return time.Since(start) })
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	cfg := transport.SenderConfig{HandshakeTimeout: 800 * time.Millisecond, HandshakeAttempts: 3}
	s, err := transport.Dial(proxy.Addr(), verus.New(verus.DefaultConfig()), cfg)
	if err == nil {
		s.Close()
		t.Fatal("handshake succeeded through a full blackout")
	}
	if !errors.Is(err, transport.ErrHandshakeFailed) {
		t.Fatalf("error %v does not wrap ErrHandshakeFailed", err)
	}
}

// TestProxyLossBurstsDeliver runs the city-loss stochastic plan over the
// real stack: despite bursts, corruption, duplication, and reordering, the
// transfer makes progress and both ends close cleanly.
func TestProxyLossBurstsDeliver(t *testing.T) {
	r, err := transport.NewReceiver("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	start := time.Now()
	plan := &faults.Plan{
		Name: "test-bursts",
		Loss: &faults.GilbertElliott{PGoodBad: 0.01, PBadGood: 0.2, LossGood: 0.001, LossBad: 0.3},
		// Corruption exercises the receiver's parse-reject path; dup and
		// reorder exercise the sender's out-of-order ack handling.
		CorruptProb:  0.005,
		DupProb:      0.005,
		ReorderProb:  0.01,
		ReorderDelay: 10 * time.Millisecond,
	}
	proxy, err := faults.NewProxy(r.Addr().String(), plan, 99, func() time.Duration { return time.Since(start) })
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	s, err := transport.Dial(proxy.Addr(), verus.New(verus.ResilientConfig()), transport.SenderConfig{})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(2 * time.Second)
	ss := s.Stats()
	if ss.Acked == 0 {
		t.Fatal("no acks through the bursty path")
	}
	if r.Stats().UniquePackets == 0 {
		t.Fatal("no unique packets delivered")
	}
	closeWithin(t, "sender close", 5*time.Second, s.Close)
}
