package tcp

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/snap"
)

// Digests of TestTCPModelsPinned's event script, one per model. They change
// only when a model's window dynamics or its checkpoint bytes change.
const (
	newrenoPinDigest = "0c687e3be291edc5135ce8c1c1441987f7429a2ccdf8278139a90783fd19faa6"
	cubicPinDigest   = "a60c03b9979ab3ff690937ab4dd48aca9be011dd153abba9a31101b3263b255f"
	vegasPinDigest   = "54f1064407a882db55c22b62884ebc455d9052763b421208d2e07b5fa8eee85a"
)

// TestTCPModelsPinned drives each TCP model through a seeded script of sends,
// acks that skip sequence numbers under jittered RTTs, losses and timeouts,
// and hashes what the host can observe after every event (window, ssthresh,
// allowance, send tag) plus the model's checkpoint bytes every 1,000 events.
// A refactor of the models must leave all three digests unchanged.
func TestTCPModelsPinned(t *testing.T) {
	const events = 100_000
	n, c, v := NewNewReno(), NewCubic(), NewVegas()
	models := []struct {
		name string
		ctrl interface {
			cc.Controller
			snap.Walkable
		}
		cwnd       func() float64
		ssthresh   func() float64
		inRecovery func() bool
		slowStart  func() bool // Vegas only
		want       string
	}{
		{"newreno", n, func() float64 { return n.cwnd }, func() float64 { return n.ssthresh }, func() bool { return n.inRecovery }, nil, newrenoPinDigest},
		{"cubic", c, func() float64 { return c.cwnd }, func() float64 { return c.ssthresh }, func() bool { return c.inRecovery }, nil, cubicPinDigest},
		{"vegas", v, func() float64 { return v.cwnd }, func() float64 { return v.ssthresh }, func() bool { return v.inRecovery }, func() bool { return v.slowStart }, vegasPinDigest},
	}
	for _, m := range models {
		t.Run(m.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(34))
			h := sha256.New()
			var buf [8]byte
			put := func(u uint64) {
				binary.LittleEndian.PutUint64(buf[:], u)
				h.Write(buf[:])
			}
			enc := snap.NewEncoder()

			var now time.Duration
			nextSeq, ackedTo := int64(0), int64(-1)
			var entered, left, timeouts, ssExits int
			for i := 0; i < events; i++ {
				now += time.Duration(rng.Int63n(int64(2 * time.Millisecond)))
				inflight := int(nextSeq - 1 - ackedTo)
				wasRecovering := m.inRecovery()
				switch r := rng.Intn(1000); {
				case r < 450:
					if m.ctrl.Allowance(now, inflight) > 0 {
						m.ctrl.OnSend(now, nextSeq, 1400)
						nextSeq++
					}
				case r < 900:
					if ackedTo >= nextSeq-1 {
						break
					}
					seq := min(ackedTo+1+rng.Int63n(3), nextSeq-1)
					ackedTo = seq
					rtt := 30*time.Millisecond + time.Duration(rng.Int63n(int64(60*time.Millisecond)))
					slow := m.slowStart != nil && m.slowStart()
					m.ctrl.OnAck(now, cc.AckSample{Seq: seq, RTT: rtt, SentWindow: m.ctrl.SendTag(), Inflight: int(nextSeq - 1 - ackedTo), Bytes: 1400})
					if wasRecovering && !m.inRecovery() {
						left++
					}
					if slow && !m.slowStart() {
						ssExits++
					}
				case r < 985:
					if ackedTo < nextSeq-1 {
						ackedTo++ // the lost packet leaves the window
					}
					m.ctrl.OnLoss(now, cc.LossEvent{Seq: ackedTo, SentWindow: m.ctrl.SendTag(), Inflight: int(nextSeq - 1 - ackedTo)})
					if !wasRecovering && m.inRecovery() {
						entered++
					}
				default:
					m.ctrl.OnTimeout(now)
					timeouts++
				}
				inflight = int(nextSeq - 1 - ackedTo)
				put(math.Float64bits(m.cwnd()))
				put(math.Float64bits(m.ssthresh()))
				put(uint64(int64(m.ctrl.Allowance(now, inflight))))
				put(uint64(int64(m.ctrl.SendTag())))
				if i%1000 == 999 {
					enc.Reset()
					m.ctrl.Walk(snap.Save(enc))
					b, err := enc.Encode(0)
					if err != nil {
						t.Fatal(err)
					}
					h.Write(b)
				}
			}
			t.Logf("%d recoveries entered, %d left, %d timeouts, %d slow-start exits", entered, left, timeouts, ssExits)
			if entered < 100 || left < 100 || timeouts < 100 {
				t.Fatalf("script too weak: %d recoveries entered, %d left, %d timeouts; want >= 100 each", entered, left, timeouts)
			}
			if m.slowStart != nil && ssExits < 100 {
				t.Fatalf("script too weak: Vegas left slow start on an ack %d times, want >= 100", ssExits)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != m.want {
				t.Errorf("%s digest = %s, want %s", m.name, got, m.want)
			}
		})
	}
}
