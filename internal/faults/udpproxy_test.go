package faults

import (
	"testing"
	"time"
)

// gate's hold ledger: datagrams frozen by a handover stall leave Held either
// by release, when the stall ends, or by drop, when an outage starts first.
// The proxy is built without sockets; gate reads only the plan and the
// injected clock.
func TestProxyGateHeldLedger(t *testing.T) {
	for _, tc := range []struct {
		name          string
		events        []Event
		released, egr int64
	}{
		{"stall then outage", []Event{
			{Kind: Handover, At: 0, Dur: 10 * time.Millisecond},
			{Kind: Outage, At: 10 * time.Millisecond, Dur: 10 * time.Millisecond},
		}, 0, 2},
		{"stall ends", []Event{
			{Kind: Handover, At: 0, Dur: 10 * time.Millisecond},
		}, 2, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var now time.Duration
			p := &Proxy{plan: &Plan{Events: tc.events}, now: func() time.Duration { return now }}
			var held [][]byte
			for _, at := range []time.Duration{time.Millisecond, 2 * time.Millisecond} {
				now = at
				out, h := p.gate([]byte{1}, held)
				if len(out) != 0 {
					t.Fatalf("gate relayed %d datagrams during the stall", len(out))
				}
				held = h
			}
			if got := p.Stats().Held; got != 2 {
				t.Fatalf("Held = %d during the stall, want 2", got)
			}
			now = 15 * time.Millisecond
			out, held := p.gate(nil, held)
			s := p.Stats()
			if s.Held != 0 || len(held) != 0 {
				t.Errorf("Held = %d with %d datagrams held, want 0 and 0", s.Held, len(held))
			}
			if s.Released != tc.released || int64(len(out)) != tc.released {
				t.Errorf("Released = %d with %d relayed, want %d", s.Released, len(out), tc.released)
			}
			if s.EgressDropped != tc.egr {
				t.Errorf("EgressDropped = %d, want %d", s.EgressDropped, tc.egr)
			}
		})
	}
}
