package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/cc"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/stats"
)

// SenderConfig configures a Sender.
type SenderConfig struct {
	// HandshakeTimeout bounds the total time Dial spends probing the
	// receiver before giving up with ErrHandshakeFailed. A value <= 0
	// selects the 3-second default.
	HandshakeTimeout time.Duration
	// HandshakeAttempts bounds the number of SYN probes within the
	// timeout. Each attempt waits with exponential backoff plus jitter.
	// A value <= 0 selects the default of 5.
	HandshakeAttempts int
	// Obs attaches the observability layer: handshake/RTO/stall trace
	// events and registry-backed counters, under run "0". nil (the
	// default) keeps the sender on its disabled nil-check fast path.
	Obs *obs.Observer
}

// handshakeSeed seeds the handshake's backoff jitter, so retry timing is a
// pure function of the configuration.
const handshakeSeed = 1

// payloadBytes is the data payload per packet: the wire adds the header to
// make the paper's 1400-byte packets.
const payloadBytes = 1400 - headerSize

// housekeep is the event loop's period when the controller is purely
// ack-clocked: how often the retransmission timeout is checked.
const housekeep = 5 * time.Millisecond

// ErrHandshakeFailed is wrapped by Dial when the receiver never answers the
// control-channel handshake within the retry budget.
var ErrHandshakeFailed = errors.New("transport: handshake failed")

// SenderStats summarizes a sender's run.
type SenderStats struct {
	Sent, Acked, Losses, Timeouts int64
	// HandshakeRetries counts SYN probes beyond the first during Dial.
	HandshakeRetries int64
	// Stalls counts no-progress episodes: stretches where repeated RTOs
	// fired with data pending and no ack arriving. Each episode is counted
	// once and also reported on the Errors channel.
	Stalls int64
	// RTT aggregates round-trip samples in seconds.
	RTT *stats.Summary
}

// senderCounters are the sender's telemetry instruments. They are obs
// counters (atomic, zero-value-ready) so Dial can register the very same
// instruments with a metrics registry; Stats snapshots their values into
// the legacy SenderStats struct.
type senderCounters struct {
	sent, acked, losses, timeouts obs.Counter
	handshakeRetries, stalls      obs.Counter
}

// Sender drives a cc.Controller over a real UDP socket. Sequencing, RTT
// estimation, loss detection and the retransmission timeout are a
// netsim.Host, the same one the simulator's Source runs; the Sender adds the
// wire, the handshake, its counters and stall reports. All controller
// interaction happens on the internal event-loop goroutine, matching the
// single-threaded contract of cc.Controller. A Sender is flow 0: on the
// wire, in its stall reports and in its series' flow="0" label.
type Sender struct {
	cfg  SenderConfig
	conn *net.UDPConn
	ctrl cc.Controller

	start time.Time // host time at Dial; the loop steps take time since it

	ctrs senderCounters

	mu  sync.Mutex
	rtt *stats.Summary

	ackCh  chan Header
	errCh  chan error
	stopCh chan struct{}
	doneCh chan struct{}

	// Event-loop state (not locked; loop-owned).
	host    netsim.Host
	stalled bool // a stall episode is open (reported once)
}

// stallReportAfter is how many consecutive no-progress RTOs open a stall
// episode. Three back-to-back timeouts with exponential backoff means
// seconds of silence — long past ordinary loss recovery.
const stallReportAfter = 3

// Dial connects a sender to the receiver at addr, verifies liveness with a
// bounded-retry control handshake, and starts the event loop. A receiver
// that never answers produces an error wrapping ErrHandshakeFailed instead
// of a sender that wedges silently.
func Dial(addr string, ctrl cc.Controller, cfg SenderConfig) (*Sender, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.DialUDP("udp", nil, ua)
	if err != nil {
		return nil, err
	}
	if cfg.HandshakeTimeout <= 0 {
		cfg.HandshakeTimeout = 3 * time.Second
	}
	if cfg.HandshakeAttempts <= 0 {
		cfg.HandshakeAttempts = 5
	}
	s := &Sender{
		cfg:    cfg,
		conn:   conn,
		ctrl:   ctrl,
		start:  now(),
		rtt:    stats.NewSummary(1024),
		ackCh:  make(chan Header, 1024),
		errCh:  make(chan error, 8),
		stopCh: make(chan struct{}),
		doneCh: make(chan struct{}),
	}
	if o := cfg.Obs; o != nil {
		label := func(name string) string {
			return obs.Labeled(name, "flow", "0", "run", "0")
		}
		o.RegisterCounter(label("transport_sent_total"), &s.ctrs.sent)
		o.RegisterCounter(label("transport_acked_total"), &s.ctrs.acked)
		o.RegisterCounter(label("transport_losses_total"), &s.ctrs.losses)
		o.RegisterCounter(label("transport_timeouts_total"), &s.ctrs.timeouts)
		o.RegisterCounter(label("transport_handshake_retries_total"), &s.ctrs.handshakeRetries)
		o.RegisterCounter(label("transport_stalls_total"), &s.ctrs.stalls)
		if v, ok := ctrl.(obs.Observable); ok {
			v.Observe(o, 0, 0)
		}
	}
	if err := s.handshake(); err != nil {
		conn.Close()
		return nil, err
	}
	go s.readLoop()
	go s.run()
	return s, nil
}

// handshake probes the receiver with typeSyn until the echoed typeSynAck
// arrives, retrying with exponential backoff plus seeded jitter (±25% of
// the wait, so synchronized restarts do not re-collide), bounded by both an
// attempt budget and a total deadline. Runs before the read/event loops
// start, so it owns the socket.
func (s *Sender) handshake() error {
	rng := rand.New(rand.NewSource(handshakeSeed))
	deadline := now().Add(s.cfg.HandshakeTimeout)
	buf := make([]byte, maxPacket)
	synBuf := make([]byte, 0, headerSize)
	wait := 100 * time.Millisecond
	var attempts int
	for attempts = 0; attempts < s.cfg.HandshakeAttempts; attempts++ {
		t := now()
		if !t.Before(deadline) {
			break
		}
		if attempts > 0 {
			s.ctrs.handshakeRetries.Inc()
		}
		s.emitHandshake("probe", attempts+1)
		synBuf = Header{Type: typeSyn, SentNanos: t.UnixNano()}.Marshal(synBuf[:0])
		// A failed write (likely an ICMP unreachable surfaced on the
		// connected socket) waits out its attempt like a lost probe.
		_, _ = s.conn.Write(synBuf)
		jitter := time.Duration(float64(wait) * 0.25 * (rng.Float64()*2 - 1))
		attemptDeadline := t.Add(wait + jitter)
		if attemptDeadline.After(deadline) {
			attemptDeadline = deadline
		}
		s.conn.SetReadDeadline(attemptDeadline)
		for {
			n, err := s.conn.Read(buf)
			if err != nil {
				break // attempt deadline, or unreachable; retry
			}
			if h, err := ParseHeader(buf[:n]); err == nil && h.Type == typeSynAck {
				s.conn.SetReadDeadline(time.Time{})
				s.emitHandshake("ok", attempts+1)
				return nil
			}
			// Anything else (stray data, corrupt datagram) is ignored.
		}
		wait *= 2
	}
	s.conn.SetReadDeadline(time.Time{})
	s.emitHandshake("fail", attempts)
	return fmt.Errorf("%w: no answer from %v after %d probes over %v",
		ErrHandshakeFailed, s.conn.RemoteAddr(), attempts, s.elapsed())
}

// emitHandshake records a control-channel handshake phase when tracing is
// attached. At is the time since Dial, the sender's time axis.
func (s *Sender) emitHandshake(phase string, attempt int) {
	if s.cfg.Obs == nil {
		return
	}
	s.cfg.Obs.Emit(&obs.Event{At: s.elapsed(), Kind: obs.KindHandshake, Str: phase, V0: float64(attempt)})
}

// Errors exposes the sender's graceful-degradation reports: handshake-level
// failures after Dial, write errors, and stall episodes (no ack progress
// through stallReportAfter consecutive RTOs). The channel is buffered and
// never blocks the event loop; a full buffer drops reports.
func (s *Sender) Errors() <-chan error { return s.errCh }

// pushErr reports a degradation without ever blocking the event loop.
func (s *Sender) pushErr(err error) {
	select {
	case s.errCh <- err:
	default:
	}
}

// Stats returns a snapshot of the sender's counters. It is a thin adapter
// over the obs instruments Dial registers with a metrics registry when
// SenderConfig.Obs is set. RTT is a copy the caller owns: a percentile query
// permutes a Summary's samples, so the live one never leaves the lock.
func (s *Sender) Stats() SenderStats {
	s.mu.Lock()
	rtt := stats.NewSummary(s.rtt.N())
	rtt.Merge(s.rtt)
	s.mu.Unlock()
	return SenderStats{
		Sent:             s.ctrs.sent.Value(),
		Acked:            s.ctrs.acked.Value(),
		Losses:           s.ctrs.losses.Value(),
		Timeouts:         s.ctrs.timeouts.Value(),
		HandshakeRetries: s.ctrs.handshakeRetries.Value(),
		Stalls:           s.ctrs.stalls.Value(),
		RTT:              rtt,
	}
}

// Close stops the sender and closes its socket.
func (s *Sender) Close() error {
	select {
	case <-s.stopCh:
	default:
		close(s.stopCh)
	}
	<-s.doneCh
	return s.conn.Close()
}

func (s *Sender) readLoop() {
	buf := make([]byte, maxPacket)
	for {
		n, err := s.conn.Read(buf)
		if err != nil {
			select {
			case <-s.stopCh: // Close in progress; expected
			default:
				s.pushErr(fmt.Errorf("transport: ack channel read failed: %w", err))
			}
			return
		}
		h, err := ParseHeader(buf[:n])
		if err != nil || h.Type != typeAck {
			continue
		}
		select {
		case s.ackCh <- h:
		case <-s.stopCh:
			return
		}
	}
}

// trySend sends what the controller allows at now.
func (s *Sender) trySend(now time.Duration) {
	n := s.host.Allowance(now)
	buf := make([]byte, 0, headerSize+payloadBytes)
	for i := 0; i < n; i++ {
		window := s.ctrl.SendTag()
		h := Header{
			Type:      typeData,
			Seq:       s.host.NextSeq(),
			SentNanos: s.start.Add(now).UnixNano(),
			Window:    uint32(window),
			Length:    uint16(payloadBytes),
		}
		buf = h.Marshal(buf[:0])
		buf = append(buf, make([]byte, payloadBytes)...)
		if _, err := s.conn.Write(buf); err != nil {
			s.pushErr(fmt.Errorf("transport: send of seq %d failed: %w", h.Seq, err))
			return
		}
		s.host.Sent(now, window)
		s.ctrs.sent.Inc()
	}
}

// handleAck feeds an acknowledgement to the host and, when it matched a
// packet in flight, sends what the controller now allows. The ack echoes only
// a header, so the size reported is that of the data packet it acknowledges.
func (s *Sender) handleAck(now time.Duration, h Header) {
	rtt, losses, ok := s.host.Ack(now, h.Seq, headerSize+payloadBytes)
	if !ok {
		return
	}
	s.stalled = false // ack progress closes any open stall episode
	s.ctrs.acked.Inc()
	s.ctrs.losses.Add(int64(losses))
	s.mu.Lock()
	s.rtt.Add(rtt.Seconds())
	s.mu.Unlock()
	s.trySend(now)
}

// checkTimers fires the retransmission timeout if it has run out by now, and
// opens a stall episode after stallReportAfter of them in a row.
func (s *Sender) checkTimers(now time.Duration) {
	if !s.host.CheckTimeout(now) {
		return
	}
	s.ctrs.timeouts.Inc()
	backoff, next := s.host.Backoff()
	openStall := backoff >= stallReportAfter && !s.stalled
	if openStall {
		s.stalled = true
		s.ctrs.stalls.Inc()
	}
	if o := s.cfg.Obs; o != nil {
		o.Emit(&obs.Event{At: now, Kind: obs.KindRTO, V0: float64(backoff), V1: next.Seconds()})
		if openStall {
			o.Emit(&obs.Event{At: now, Kind: obs.KindStall, V0: float64(backoff)})
		}
	}
	if openStall {
		// Graceful degradation instead of a silent wedge: the sender keeps
		// probing (the RTO backoff continues), but the application learns
		// the path is dark and can decide to tear down.
		s.pushErr(fmt.Errorf("transport: flow 0 stalled: no ack progress through %d consecutive RTOs (next backoff %v); still probing",
			backoff, next))
	}
}
