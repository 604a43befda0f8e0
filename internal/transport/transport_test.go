package transport

import (
	"errors"
	"math"
	"math/rand"
	"net"
	"net/netip"
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

// TestReceiverDuplicateWindow drives the receiver's counting step with 10⁶
// sequence numbers from one peer and requires the unique count of a map
// model of the rule ReceiverStats states: a number is new unless it was seen
// before or lies dupWindow or more below the highest seen. It requires too
// that the peer's state is one fixed-size window that counting never grows.
func TestReceiverDuplicateWindow(t *testing.T) {
	r := &Receiver{seen: make(map[netip.AddrPort]*seqWindow)}
	peer := netip.MustParseAddrPort("192.0.2.1:4000")
	seen := make(map[int64]bool)
	top := int64(math.MinInt64)
	var got, want, late, stale int
	for _, seq := range duplicateDrive(rand.New(rand.NewSource(1)), 1_000_000) {
		below := seq < top && top >= math.MinInt64+dupWindow && seq <= top-dupWindow
		isNew := !seen[seq] && !below
		if isNew {
			want++
			if seq < top {
				late++
			}
		} else if below && !seen[seq] {
			stale++
		}
		seen[seq] = true
		top = max(top, seq)
		if r.countFirst(peer, seq) {
			got++
		}
	}
	if got != want {
		t.Fatalf("counted %d unique packets, the map model %d", got, want)
	}
	// No vacuous pass: late first arrivals inside the window, numbers never
	// seen but below it, and duplicates all occurred.
	if late < 10_000 || stale < 10_000 || 1_000_000-want-stale < 10_000 {
		t.Errorf("%d unique, %d of them late; %d unseen below the window", want, late, stale)
	}
	if top != math.MaxInt64 {
		t.Errorf("the drive topped out at %d", top)
	}
	t.Logf("%d unique, %d of them late; %d unseen below the window", want, late, stale)
	if len(r.seen) != 1 {
		t.Fatalf("%d peers' state for one peer", len(r.seen))
	}
	next := top
	if n := testing.AllocsPerRun(1000, func() { r.countFirst(peer, next); next -= 3 }); n != 0 {
		t.Errorf("counting a known peer's packet allocated %v times", n)
	}
}

// TestReceiverBoundsPeers dials, uses and closes more senders than maxPeers,
// one after another, while one long-lived peer sends between them. The
// receiver must keep state for at most maxPeers peers, and the long-lived
// peer, never the least recently active, must still have its duplicates
// dropped.
func TestReceiverBoundsPeers(t *testing.T) {
	r, err := NewReceiver("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	raddr := r.Addr().(*net.UDPAddr)
	dial := func() *net.UDPConn {
		c, err := net.DialUDP("udp", nil, raddr)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	// send delivers one data packet and waits for its ack, so the receiver
	// has counted it before send returns.
	ack := make([]byte, maxPacket)
	send := func(c *net.UDPConn, seq int64) {
		t.Helper()
		if _, err := c.Write(Header{Type: typeData, Seq: seq}.Marshal(nil)); err != nil {
			t.Fatal(err)
		}
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := c.Read(ack); err != nil {
			t.Fatal(err)
		}
	}
	active := dial()
	defer active.Close()
	send(active, 0)
	// The kernel may hand a closed sender's port to a later one; dial until
	// maxPeers+50 distinct ports have come and gone.
	ports := make(map[string]bool)
	for i := 1; len(ports) < maxPeers+50; i++ {
		if i > 4*maxPeers {
			t.Fatalf("only %d distinct sender ports in %d dials", len(ports), i)
		}
		c := dial()
		ports[c.LocalAddr().String()] = true
		send(c, 0)
		c.Close()
		send(active, int64(i))
	}
	r.mu.Lock()
	peers := len(r.seen)
	r.mu.Unlock()
	if peers > maxPeers {
		t.Fatalf("receiver keeps state for %d peers, the bound is %d", peers, maxPeers)
	}
	before := r.Stats().UniquePackets
	send(active, 0)
	send(active, 1)
	if u := r.Stats().UniquePackets; u != before {
		t.Fatalf("the active peer's duplicates counted as %d new packets", u-before)
	}
}

// duplicateDrive returns n sequence numbers from one peer, starting below
// zero so that runs cross it: runs in order, blocks shuffled within
// dupWindow, repeats of recent numbers reaching past the window, forward
// jumps of dupWindow−1, dupWindow, dupWindow+1 and more followed by some of
// the numbers they skipped, and math.MinInt64 and numbers just either side
// of the window's floor. The last fortieth runs up to math.MaxInt64 and then
// draws arbitrary int64 values.
func duplicateDrive(rng *rand.Rand, n int) []int64 {
	seqs := make([]int64, 0, n)
	next := int64(-300_000)
	for len(seqs) < n-n/40 {
		switch rng.Intn(5) {
		case 0:
			for k := 1 + rng.Intn(2000); k > 0; k-- {
				seqs = append(seqs, next)
				next++
			}
		case 1:
			size := 2 + rng.Intn(dupWindow)
			for _, i := range rng.Perm(size) {
				seqs = append(seqs, next+int64(i))
			}
			next += int64(size)
		case 2:
			for k := 1 + rng.Intn(200); k > 0; k-- {
				seqs = append(seqs, next-1-rng.Int63n(2*dupWindow))
			}
		case 3:
			jump := []int64{dupWindow - 1, dupWindow, dupWindow + 1, dupWindow + rng.Int63n(1<<20)}[rng.Intn(4)]
			next += jump
			seqs = append(seqs, next)
			for k := rng.Intn(300); k > 0; k-- {
				seqs = append(seqs, next-1-rng.Int63n(jump))
			}
			next++
		case 4:
			seqs = append(seqs, math.MinInt64, next-1-dupWindow, next-dupWindow, next-dupWindow+1)
		}
	}
	for s := int64(math.MaxInt64 - 2*dupWindow); ; s++ {
		seqs = append(seqs, s)
		if rng.Intn(4) == 0 {
			seqs = append(seqs, s-rng.Int63n(2*dupWindow))
		}
		if s == math.MaxInt64 {
			break
		}
	}
	for len(seqs) < n {
		seqs = append(seqs, int64(rng.Uint64()), math.MaxInt64-rng.Int63n(2*dupWindow))
	}
	return seqs[:n]
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
