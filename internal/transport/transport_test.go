package transport

import (
	"errors"
	"net"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/tcp"
	"repro/internal/verus"
)

func TestHeaderRoundTrip(t *testing.T) {
	h := Header{Type: typeData, Flow: 3, Seq: 123456789, SentNanos: 987654321, Window: 42, Length: 1376}
	buf := h.Marshal(nil)
	if len(buf) != headerSize {
		t.Fatalf("marshal length = %d, want %d", len(buf), headerSize)
	}
	got, err := ParseHeader(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("round trip: got %+v, want %+v", got, h)
	}
}

func TestParseHeaderErrors(t *testing.T) {
	if _, err := ParseHeader(make([]byte, headerSize-1)); err != ErrShortPacket {
		t.Errorf("short packet: %v", err)
	}
	bad := Header{Type: typeData, Seq: 1}.Marshal(nil)
	bad[0] = 0x7f
	if _, err := ParseHeader(bad); err == nil {
		t.Error("unknown type accepted")
	}
	neg := Header{Type: typeAck}.Marshal(nil)
	neg[2] = 0xff // sign bit of seq
	if _, err := ParseHeader(neg); err == nil {
		t.Error("negative seq accepted")
	}
}

// Property: marshal/parse is the identity on valid headers.
func TestQuickHeaderRoundTrip(t *testing.T) {
	f := func(flow byte, seq uint32, nanos int64, window uint32, length uint16, kind uint8) bool {
		types := []byte{typeData, typeAck, typeFin, typeSyn, typeSynAck}
		h := Header{
			Type:      types[int(kind)%len(types)],
			Flow:      flow,
			Seq:       int64(seq),
			SentNanos: nanos,
			Window:    window,
			Length:    length,
		}
		got, err := ParseHeader(h.Marshal(nil))
		return err == nil && got == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLoopbackVerusTransfer(t *testing.T) {
	r, err := NewReceiver("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	s, err := Dial(r.Addr().String(), verus.New(verus.DefaultConfig()), SenderConfig{})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(1500 * time.Millisecond)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	ss := s.Stats()
	rs := r.Stats()
	if ss.Sent == 0 {
		t.Fatal("sender sent nothing")
	}
	if rs.Packets == 0 {
		t.Fatal("receiver saw nothing")
	}
	if ss.Acked == 0 {
		t.Fatal("no acks processed")
	}
	if ss.RTT.N() == 0 || ss.RTT.Mean() <= 0 {
		t.Fatal("no RTT samples")
	}
	// Loopback: low loss, most sent packets acked.
	if float64(ss.Acked) < 0.5*float64(ss.Sent) {
		t.Fatalf("acked %d of %d sent", ss.Acked, ss.Sent)
	}
}

func TestLoopbackNewRenoTransfer(t *testing.T) {
	r, err := NewReceiver("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	s, err := Dial(r.Addr().String(), tcp.NewNewReno(), SenderConfig{})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(time.Second)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if r.Stats().UniquePackets == 0 {
		t.Fatal("no unique packets delivered")
	}
}

// TestReceiverCountsPacketsPerPeer runs two senders to one receiver, one
// after the other. Both number their packets from 0, so the receiver must
// tell them apart by peer: every sequence number a sender had acked reached
// the receiver at least once from that sender.
func TestReceiverCountsPacketsPerPeer(t *testing.T) {
	r, err := NewReceiver("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var acked int64
	var prev *Sender
	for i := 0; i < 2; i++ {
		s, err := Dial(r.Addr().String(), tcp.NewNewReno(), SenderConfig{})
		if err != nil {
			t.Fatal(err)
		}
		// The first sender closes only once the second has dialed, so the
		// two never share a local port.
		if prev != nil {
			if err := prev.Close(); err != nil {
				t.Fatal(err)
			}
			acked += prev.Stats().Acked
		}
		prev = s
		time.Sleep(400 * time.Millisecond)
	}
	if err := prev.Close(); err != nil {
		t.Fatal(err)
	}
	acked += prev.Stats().Acked
	if u := r.Stats().UniquePackets; u < acked {
		t.Fatalf("receiver counted %d unique packets; the two senders had %d acked", u, acked)
	}
}

func TestReceiverDoubleCloseSafe(t *testing.T) {
	r, err := NewReceiver("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal("second close should be a no-op")
	}
}

func TestDialBadAddress(t *testing.T) {
	if _, err := Dial("not-an-address:xyz", tcp.NewNewReno(), SenderConfig{}); err == nil {
		t.Fatal("bad address accepted")
	}
}

// TestDialDeadReceiverFailsFast pins the satellite fix: dialing a port with
// no receiver must surface ErrHandshakeFailed within the retry budget, not
// return a wedged sender. (A bound-but-silent socket stands in for the lost
// control datagram; ICMP refusals from a closed port take the same path.)
func TestDialDeadReceiverFailsFast(t *testing.T) {
	dead, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer dead.Close()
	cfg := SenderConfig{HandshakeTimeout: 700 * time.Millisecond, HandshakeAttempts: 3}
	start := time.Now()
	s, err := Dial(dead.LocalAddr().String(), tcp.NewNewReno(), cfg)
	if err == nil {
		s.Close()
		t.Fatal("dial of a dead receiver succeeded")
	}
	if !errors.Is(err, ErrHandshakeFailed) {
		t.Fatalf("error %v does not wrap ErrHandshakeFailed", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("handshake took %v; the retry budget must bound it", elapsed)
	}
}

// TestHandshakeCountsRetries checks the receiver answers SYNs and that a
// live path completes without burning retries.
func TestHandshakeCountsRetries(t *testing.T) {
	r, err := NewReceiver("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	s, err := Dial(r.Addr().String(), tcp.NewNewReno(), SenderConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.Stats().HandshakeRetries; got != 0 {
		t.Fatalf("loopback handshake needed %d retries", got)
	}
	if r.Stats().Syns == 0 {
		t.Fatal("receiver answered no SYN")
	}
}

func TestSenderConfigDefaults(t *testing.T) {
	if payloadBytes+headerSize != 1400 {
		t.Fatalf("payload %d + header %d != 1400", payloadBytes, headerSize)
	}
}
