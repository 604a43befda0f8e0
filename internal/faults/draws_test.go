package faults

import (
	"encoding/binary"
	"slices"
	"testing"
	"time"

	"repro/internal/netsim"
)

// TestLinkAndProxyDrawAlike runs one stochastic plan at one seed through both
// backends: n packets through a Wrapped lossless FixedLink, spaced so that
// none queues, and n datagrams through Proxy.impair. Each packet takes the
// same draws on either side, so the link delivers exactly the proxy's intact
// datagrams, copies the same ones, and misses exactly the ones the proxy
// lost or corrupted: the link drops a corrupted packet, the proxy relays it
// with byte 0 flipped.
//
// Reordering is excluded. The link delays a reordered packet by
// ReorderDelay, while the proxy displaces it by one datagram and, when its
// one-slot hold is busy, goes on to the duplicate draw instead.
func TestLinkAndProxyDrawAlike(t *testing.T) {
	const n, seed = 5000, 77
	plan := &Plan{
		Loss:        &GilbertElliott{PGoodBad: 0.01, PBadGood: 0.2, LossGood: 0.002, LossBad: 0.3},
		CorruptProb: 0.01,
		DupProb:     0.01,
	}

	sim := netsim.NewSim()
	linkGot := map[uint64]int{}
	dst := netsim.ReceiverFunc(func(p *netsim.Packet) {
		linkGot[uint64(p.Seq)]++
		sim.FreePacket(p)
	})
	l := Wrap(sim, plan, seed, dst, func(fdst netsim.Receiver) netsim.Link {
		return netsim.NewFixedLink(sim, netsim.NewDropTail(1<<20), 100, time.Millisecond, fdst, 1)
	})
	for i := 0; i < n; i++ {
		sim.Schedule(time.Duration(i)*time.Millisecond, func() {
			l.Send(sim.NewPacket(0, int64(i), 100, sim.Now(), 0))
		})
	}
	sim.Run(time.Duration(n+10) * time.Millisecond)

	p, ln := startProxy(t, plan, seed)
	intact := map[uint64]int{}
	impairSeqs(t, p, ln, n, func(b []byte) {
		if b[0] == 0 { // a corrupted datagram has byte 0 flipped
			intact[binary.BigEndian.Uint64(b)]++
		}
	})
	ps := p.Stats()

	where := func(keep func(seq uint64) bool) []uint64 {
		var out []uint64
		for seq := uint64(0); seq < n; seq++ {
			if keep(seq) {
				out = append(out, seq)
			}
		}
		return out
	}
	for _, c := range []struct {
		what        string
		link, proxy func(seq uint64) bool
	}{
		{"delivered", func(s uint64) bool { return linkGot[s] > 0 }, func(s uint64) bool { return intact[s] > 0 }},
		{"duplicated", func(s uint64) bool { return linkGot[s] > 1 }, func(s uint64) bool { return intact[s] > 1 }},
	} {
		if a, b := where(c.link), where(c.proxy); !slices.Equal(a, b) {
			t.Errorf("%s: the link has %d sequence numbers, the proxy %d, and they differ", c.what, len(a), len(b))
		}
	}
	missing := where(func(s uint64) bool { return linkGot[s] == 0 })
	gone := where(func(s uint64) bool { return intact[s] == 0 })
	if !slices.Equal(missing, gone) || int64(len(gone)) != ps.BurstLost+ps.Corrupted {
		t.Errorf("the link misses %d packets; the proxy lost %d and corrupted %d of %d not relayed intact",
			len(missing), ps.BurstLost, ps.Corrupted, len(gone))
	}
	if l.BurstLost != ps.BurstLost || l.Corrupted != ps.Corrupted || l.Duplicated != ps.Duplicated {
		t.Errorf("link lost/corrupted/duplicated %d/%d/%d, proxy %d/%d/%d",
			l.BurstLost, l.Corrupted, l.Duplicated, ps.BurstLost, ps.Corrupted, ps.Duplicated)
	}
	if l.BurstLost == 0 || l.Corrupted == 0 || l.Duplicated == 0 {
		t.Errorf("the plan exercised too little: lost %d, corrupted %d, duplicated %d",
			l.BurstLost, l.Corrupted, l.Duplicated)
	}
}
