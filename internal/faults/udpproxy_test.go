package faults

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"net"
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
			p := &Proxy{draws: draws{plan: &Plan{Events: tc.events}}, now: func() time.Duration { return now }}
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

// startProxy starts a proxy through plan toward a fresh loopback listener and
// returns both; the listener receives whatever the proxy relays forward.
func startProxy(t *testing.T, plan *Plan, seed int64) (*Proxy, *net.UDPConn) {
	t.Helper()
	ln, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProxy(ln.LocalAddr().String(), plan, seed, func() time.Duration { return 0 })
	if err != nil {
		ln.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		p.Close()
		ln.Close()
	})
	return p, ln
}

// impairSeqs runs datagrams 0..n-1, each an 8-byte big-endian sequence
// number, through p.impair and hands every datagram the listener receives to
// got. After each call it reads exactly the datagrams the call delivered, so
// the drive stays in lockstep with the listener and the kernel never has
// more than three of them queued: the datagram, a released reorder hold and
// a duplicate.
func impairSeqs(t *testing.T, p *Proxy, ln *net.UDPConn, n int, got func([]byte)) {
	t.Helper()
	buf := make([]byte, 64)
	for i := 0; i < n; i++ {
		before := p.Stats().Delivered
		p.impair(binary.BigEndian.AppendUint64(nil, uint64(i)))
		for k := p.Stats().Delivered - before; k > 0; k-- {
			if err := ln.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
				t.Fatal(err)
			}
			m, err := ln.Read(buf)
			if err != nil {
				t.Fatalf("datagram %d: reading a delivered datagram: %v", i, err)
			}
			got(buf[:m])
		}
	}
}

// TestProxyImpairmentPinned pins the proxy's per-datagram impairment stream:
// city-loss's stochastic processes at a fixed seed, driven through impair
// 20,000 times. The digest covers the relayed bytes in arrival order, so a
// change to the draw order, to what a draw does, or to the corruption byte
// moves it.
func TestProxyImpairmentPinned(t *testing.T) {
	plan := CityDrive(time.Minute)
	plan.Events = nil
	p, ln := startProxy(t, plan, 4242)
	h := sha256.New()
	impairSeqs(t, p, ln, 20_000, func(b []byte) { h.Write(b) })
	s := p.Stats()
	got := fmt.Sprintf("%x lost=%d corrupted=%d reordered=%d duplicated=%d delivered=%d",
		h.Sum(nil), s.BurstLost, s.Corrupted, s.Reordered, s.Duplicated, s.Delivered)
	const want = "57d2f6f248415b664ae1d9619bbd1057179fbfeef37997077ec55bda338a7510 lost=277 corrupted=19 reordered=43 duplicated=11 delivered=19734"
	if got != want {
		t.Errorf("impairment stream\n got %s\nwant %s", got, want)
	}
}

// A datagram held for reordering is pending until the next one releases it.
// The ReorderPending gauge covers it in between, so a Close while it is held
// still leaves it on the ledger.
func TestProxyReorderPendingGauge(t *testing.T) {
	p, ln := startProxy(t, &Plan{ReorderProb: 1, ReorderDelay: time.Millisecond}, 1)
	p.impair([]byte{0})
	if s := p.Stats(); s.Reordered != 1 || s.ReorderPending != 1 || s.Delivered != 0 {
		t.Fatalf("one datagram held: Reordered %d, ReorderPending %d, Delivered %d; want 1, 1, 0",
			s.Reordered, s.ReorderPending, s.Delivered)
	}
	p.impair([]byte{1})
	if s := p.Stats(); s.Reordered != 1 || s.ReorderPending != 0 || s.Delivered != 2 {
		t.Fatalf("held datagram released: Reordered %d, ReorderPending %d, Delivered %d; want 1, 0, 2",
			s.Reordered, s.ReorderPending, s.Delivered)
	}
	var order []byte
	buf := make([]byte, 8)
	for len(order) < 2 {
		if err := ln.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
		n, err := ln.Read(buf)
		if err != nil || n != 1 {
			t.Fatalf("read %d bytes: %v", n, err)
		}
		order = append(order, buf[0])
	}
	if order[0] != 1 || order[1] != 0 {
		t.Errorf("relayed order %v, want the held datagram displaced by one: [1 0]", order)
	}
}
