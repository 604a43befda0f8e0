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
// distinct (sender address and port, sequence number) pairs within a window
// of W = 4096 sequence numbers per peer: a packet whose number is W or more
// below the highest its peer has sent counts as a duplicate, so the receiver
// keeps 512 bytes of bitmap per peer however many packets arrive. It keeps
// them for the 256 most recently active peers; a peer it dropped starts
// afresh, so a number that peer sent before it was dropped counts again.
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

	mu    sync.Mutex
	first time.Time
	last  time.Time
	// seen holds each peer's recent sequence numbers: every sender numbers
	// its packets from 0, so a number is unique only together with its peer.
	// It holds at most maxPeers peers; arrivals counts the data packets
	// counted so far, the clock by which the least recently active is found.
	seen     map[netip.AddrPort]*seqWindow
	arrivals int64
	closed   bool
	done     chan struct{}
}

// dupWindow is how many of a peer's sequence numbers, its highest included,
// the receiver remembers. The sender numbers every transmission afresh, so
// only reordering in the network brings a number in late; 4096 packets is
// 0.5 s at 100 Mbps of 1500-byte packets.
const dupWindow = 4096

// maxPeers bounds the peers a receiver keeps a duplicate filter for. Every
// verus-client run dials from a new port, so without a bound a long-running
// server would keep one filter for every run it ever served. A new peer past
// the bound takes over the filter of the least recently active one.
const maxPeers = 256

// seqWindow is one peer's duplicate filter: the highest sequence number seen
// and a bitmap of the dupWindow numbers ending at it, number s at bit
// s mod dupWindow. last is the receiver's arrivals count at the peer's latest
// packet.
type seqWindow struct {
	top  int64
	last int64
	bits [dupWindow / 64]uint64
}

// slot returns the word and mask of seq's bit. Negative numbers wrap like
// any others: uint64 keeps consecutive numbers in consecutive bits.
func slot(seq int64) (int, uint64) {
	u := uint64(seq) % dupWindow
	return int(u / 64), 1 << (u % 64)
}

// first records seq and reports whether it is new: above top, or less than
// dupWindow below it and not seen before. Distances are taken in uint64, so
// no pair of int64 numbers overflows.
func (w *seqWindow) first(seq int64) bool {
	i, m := slot(seq)
	switch {
	case seq > w.top:
		if uint64(seq)-uint64(w.top) >= dupWindow {
			w.bits = [dupWindow / 64]uint64{}
		} else {
			// The bits of top+1 .. seq-1 still hold numbers dupWindow lower.
			for s := w.top + 1; s < seq; s++ {
				j, n := slot(s)
				w.bits[j] &^= n
			}
		}
		w.top = seq
	case uint64(w.top)-uint64(seq) >= dupWindow || w.bits[i]&m != 0:
		return false
	}
	w.bits[i] |= m
	return true
}

// countFirst reports whether peer's packet seq arrives for the first time,
// and records it. The caller holds r.mu.
func (r *Receiver) countFirst(peer netip.AddrPort, seq int64) bool {
	r.arrivals++
	w := r.seen[peer]
	if w == nil {
		w = r.newWindow()
		*w = seqWindow{top: seq}
		r.seen[peer] = w
	}
	w.last = r.arrivals
	return w.first(seq)
}

// newWindow returns a filter for a new peer: a fresh one below maxPeers
// peers, else the one of the least recently active peer, which it forgets.
func (r *Receiver) newWindow() *seqWindow {
	if len(r.seen) < maxPeers {
		return &seqWindow{}
	}
	var idle netip.AddrPort
	var w *seqWindow
	for p, pw := range r.seen {
		if w == nil || pw.last < w.last {
			idle, w = p, pw
		}
	}
	delete(r.seen, idle)
	return w
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
		seen: make(map[netip.AddrPort]*seqWindow),
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
	runID := strconv.FormatInt(run, 10)
	label := func(name string) string {
		return obs.Labeled(name, "run", runID)
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
		if r.countFirst(peer, h.Seq) {
			r.ctrs.unique.Inc()
		}
		r.mu.Unlock()

		ack := Header{Type: typeAck, Flow: h.Flow, Seq: h.Seq, SentNanos: h.SentNanos, Window: h.Window}
		ackBuf = ack.Marshal(ackBuf[:0])
		// Best-effort: a lost ack is handled by the sender's loss logic.
		_, _ = r.conn.WriteToUDPAddrPort(ackBuf, peer)
	}
}
