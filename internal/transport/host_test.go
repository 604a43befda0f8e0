package transport

import (
	"net"
	"slices"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/netsim"
	"repro/internal/stats"
)

// recCall is one call into the controller with every argument it carried.
type recCall struct {
	kind       byte
	now        time.Duration
	seq        int64
	rtt        time.Duration
	sentWindow int
	inflight   int
	bytes      int
}

// recCtrl is a fixed-window controller that records every call its host
// makes.
type recCtrl struct {
	w     int
	calls []recCall
}

func (c *recCtrl) Name() string { return "rec" }
func (c *recCtrl) OnAck(now time.Duration, a cc.AckSample) {
	c.calls = append(c.calls, recCall{'a', now, a.Seq, a.RTT, a.SentWindow, a.Inflight, a.Bytes})
}
func (c *recCtrl) OnLoss(now time.Duration, l cc.LossEvent) {
	c.calls = append(c.calls, recCall{kind: 'l', now: now, seq: l.Seq, sentWindow: l.SentWindow, inflight: l.Inflight})
}
func (c *recCtrl) OnTimeout(now time.Duration) {
	c.calls = append(c.calls, recCall{kind: 't', now: now})
}
func (c *recCtrl) TickInterval() time.Duration { return 0 }
func (c *recCtrl) Tick(time.Duration)          {}
func (c *recCtrl) SendTag() int                { return c.w }
func (c *recCtrl) Allowance(now time.Duration, inflight int) int {
	c.calls = append(c.calls, recCall{kind: 'w', now: now, inflight: inflight})
	return c.w - inflight
}
func (c *recCtrl) OnSend(now time.Duration, seq int64, inflight int) {
	c.calls = append(c.calls, recCall{kind: 's', now: now, seq: seq, inflight: inflight})
}

// TestSenderMatchesSimHost drives a Sender's loop steps and a bare
// netsim.Host, which is what the simulator's Source runs, through one
// scripted sequence, and requires the same calls into the controller,
// argument for argument. The script covers in-order and reordered acks, a
// hole that reaches the dup-ack threshold, two losses found by one scan, a
// 3×SRTT timer loss, a stale ack, and two back-to-back RTOs.
func TestSenderMatchesSimHost(t *testing.T) {
	discard, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer discard.Close()
	conn, err := net.DialUDP("udp", nil, discard.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const w = 8
	sc, hc := &recCtrl{w: w}, &recCtrl{w: w}
	s := &Sender{conn: conn, ctrl: sc, start: time.Unix(0, 0),
		rtt: stats.NewSummary(64), errCh: make(chan error, 8), host: netsim.NewHost(sc, 0)}
	h := netsim.NewHost(hc, 0)
	// The simulator acks with the delivered packet itself, so the size the
	// controller hears is the data packet's.
	pktBytes := headerSize + payloadBytes

	// Each step hands both hosts the same instant and delivers one event
	// the way the Sender's event loop does: a matched ack sends what the
	// controller then allows, as the Source's does, and a tick checks the
	// timeout and sends.
	hostSend := func(now time.Duration) {
		for n := h.Allowance(now); n > 0; n-- {
			h.Sent(now, hc.SendTag())
		}
	}
	ack := func(ms int, seq int64) {
		now := time.Duration(ms) * time.Millisecond
		s.handleAck(now, Header{Type: typeAck, Seq: seq})
		if _, _, ok := h.Ack(now, seq, pktBytes); ok {
			hostSend(now)
		}
	}
	tick := func(ms int) {
		now := time.Duration(ms) * time.Millisecond
		s.checkTimers(now)
		s.trySend(now)
		h.CheckTimeout(now)
		hostSend(now)
	}

	s.trySend(0) // seqs 0-7
	hostSend(0)
	ack(10, 0)
	ack(11, 1)
	ack(12, 3) // overtakes 2
	ack(13, 2)
	// 4 is lost: the third ack past it declares it.
	ack(14, 5)
	ack(15, 6)
	ack(16, 7)
	// 8 and 9 are lost: one scan declares both.
	ack(17, 10)
	ack(18, 11)
	ack(19, 12)
	tick(20)
	// 13 is lost and only one ack passes it before the 3×SRTT timer runs out.
	ack(21, 14)
	ack(110, 15)
	// Everything else is lost: the RTO clears the window twice, backing off.
	tick(400)
	ack(401, 16) // stale: cleared by the timeout
	tick(1000)
	ack(1010, 32) // the first of the window sent at the second RTO

	for i := 0; i < len(sc.calls) && i < len(hc.calls); i++ {
		if sc.calls[i] != hc.calls[i] {
			t.Errorf("controller call %d: Sender %+v, Host %+v", i, sc.calls[i], hc.calls[i])
		}
	}
	if len(sc.calls) != len(hc.calls) {
		t.Errorf("Sender made %d controller calls, Host %d", len(sc.calls), len(hc.calls))
	}

	// Guard: the script reached every rule it claims to.
	var acks, timeouts int64
	var lost []int64
	lossAt := map[time.Duration]int{}
	for _, c := range hc.calls {
		switch c.kind {
		case 'a':
			acks++
		case 'l':
			lost = append(lost, c.seq)
			lossAt[c.now]++
		case 't':
			timeouts++
		}
	}
	if want := []int64{4, 8, 9, 13}; !slices.Equal(lost, want) {
		t.Errorf("losses declared for %v, want %v", lost, want)
	}
	if acks != 13 || lossAt[19*time.Millisecond] != 2 || timeouts != 2 {
		t.Errorf("script too thin: %d acks matched, %d losses in the one scan, %d timeouts", acks, lossAt[19*time.Millisecond], timeouts)
	}
	st := s.Stats()
	if st.Acked != acks || st.Losses != int64(len(lost)) || st.Timeouts != timeouts {
		t.Errorf("Sender counted %d acks, %d losses, %d timeouts; the controller heard %d, %d, %d",
			st.Acked, st.Losses, st.Timeouts, acks, len(lost), timeouts)
	}
}
