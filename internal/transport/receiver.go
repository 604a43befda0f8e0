package transport

import (
	"net"
	"net/netip"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
)

// ReceiverStats summarizes what a receiver observed. UniquePackets counts
// distinct (sender address and port, sequence number) pairs.
type ReceiverStats struct {
	Packets       int64
	Bytes         int64
	FirstArrival  time.Time
	LastArrival   time.Time
	UniquePackets int64
	// Syns counts handshake probes answered (retransmitted SYNs included).
	Syns int64
}

// MeanMbps returns the goodput between first and last arrival.
func (s ReceiverStats) MeanMbps() float64 {
	d := s.LastArrival.Sub(s.FirstArrival).Seconds()
	if d <= 0 {
		return 0
	}
	return float64(s.Bytes) * 8 / d / 1e6
}

// receiverCounters are the receiver's telemetry instruments — obs counters
// so Observe can register the same instruments with a metrics registry.
type receiverCounters struct {
	packets, bytes, unique, syns obs.Counter
}

// Receiver is the paper's receiver application: it accepts data packets on a
// UDP socket and echoes an acknowledgement (with the sender's timestamp and
// window tag) for every packet, from which the sender derives delay
// measurements.
type Receiver struct {
	conn *net.UDPConn
	ctrs receiverCounters

	mu     sync.Mutex
	first  time.Time
	last   time.Time
	seen   map[packetID]struct{}
	closed bool
	done   chan struct{}
}

// packetID names a data packet: every sender numbers its packets from 0, so
// a sequence number is unique only together with the peer that sent it.
type packetID struct {
	peer netip.AddrPort
	seq  int64
}

// NewReceiver starts a receiver listening on addr (e.g. "127.0.0.1:0"),
// stamping arrivals with the host clock.
func NewReceiver(addr string) (*Receiver, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, err
	}
	r := &Receiver{
		conn: conn,
		seen: make(map[packetID]struct{}),
		done: make(chan struct{}),
	}
	go r.loop()
	return r, nil
}

// Addr returns the receiver's bound address.
func (r *Receiver) Addr() net.Addr { return r.conn.LocalAddr() }

// Stats returns a snapshot of the receiver's counters. Like Sender.Stats it
// is a thin adapter over the registry-visible obs instruments.
func (r *Receiver) Stats() ReceiverStats {
	r.mu.Lock()
	first, last := r.first, r.last
	r.mu.Unlock()
	return ReceiverStats{
		Packets:       r.ctrs.packets.Value(),
		Bytes:         r.ctrs.bytes.Value(),
		FirstArrival:  first,
		LastArrival:   last,
		UniquePackets: r.ctrs.unique.Value(),
		Syns:          r.ctrs.syns.Value(),
	}
}

// Observe implements obs.Observable: it registers the receiver's counters
// under run-labeled series (flow is ignored — one receiver serves every
// flow). Call before traffic arrives.
func (r *Receiver) Observe(o *obs.Observer, run int64, _ int) {
	if o == nil {
		return
	}
	label := func(name string) string {
		return obs.Labeled(name, "run", strconv.FormatInt(run, 10))
	}
	o.RegisterCounter(label("transport_rx_packets_total"), &r.ctrs.packets)
	o.RegisterCounter(label("transport_rx_bytes_total"), &r.ctrs.bytes)
	o.RegisterCounter(label("transport_rx_unique_total"), &r.ctrs.unique)
	o.RegisterCounter(label("transport_rx_syns_total"), &r.ctrs.syns)
}

// Close stops the receiver.
func (r *Receiver) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	r.mu.Unlock()
	err := r.conn.Close()
	<-r.done
	return err
}

func (r *Receiver) loop() {
	defer close(r.done)
	buf := make([]byte, maxPacket)
	ackBuf := make([]byte, 0, headerSize)
	for {
		n, peer, err := r.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			return // closed
		}
		h, err := ParseHeader(buf[:n])
		if err != nil {
			continue
		}
		if h.Type == typeSyn {
			// Control-channel handshake: echo the probe so the dialing
			// sender knows the receiver is live. SentNanos is echoed
			// unchanged — it identifies the attempt on the sender side.
			r.ctrs.syns.Inc()
			synAck := Header{Type: typeSynAck, Flow: h.Flow, SentNanos: h.SentNanos, Window: h.Window}
			ackBuf = synAck.Marshal(ackBuf[:0])
			_, _ = r.conn.WriteToUDPAddrPort(ackBuf, peer)
			continue
		}
		if h.Type != typeData {
			continue
		}
		t := now()
		r.ctrs.packets.Inc()
		r.ctrs.bytes.Add(int64(n))
		r.mu.Lock()
		if r.first.IsZero() {
			r.first = t
		}
		r.last = t
		id := packetID{peer, h.Seq}
		if _, dup := r.seen[id]; !dup {
			r.seen[id] = struct{}{}
			r.ctrs.unique.Inc()
		}
		r.mu.Unlock()

		ack := Header{Type: typeAck, Flow: h.Flow, Seq: h.Seq, SentNanos: h.SentNanos, Window: h.Window}
		ackBuf = ack.Marshal(ackBuf[:0])
		// Best-effort: a lost ack is handled by the sender's loss logic.
		_, _ = r.conn.WriteToUDPAddrPort(ackBuf, peer)
	}
}
