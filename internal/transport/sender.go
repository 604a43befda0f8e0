package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"sync"
	"time"

	"repro/internal/cc"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/stats"
)

// SenderConfig configures a Sender.
type SenderConfig struct {
	// Flow tags packets of this sender (0-255).
	Flow byte
	// Clock supplies timestamps and the event-loop ticker. nil selects
	// SystemClock (the real-UDP path); simulated transports inject a
	// SimClock so the sender runs on netsim virtual time.
	Clock Clock
	// HandshakeTimeout bounds the total time Dial spends probing the
	// receiver before giving up with ErrHandshakeFailed. 0 selects the
	// 3-second default; a negative value skips the handshake entirely
	// (required when injecting a virtual Clock: the handshake arms real
	// socket deadlines, which need a wall-backed clock).
	HandshakeTimeout time.Duration
	// HandshakeAttempts bounds the number of SYN probes within the
	// timeout. Each attempt waits with exponential backoff plus jitter
	// drawn from HandshakeSeed. 0 selects the default of 5.
	HandshakeAttempts int
	// HandshakeSeed seeds the backoff-jitter RNG, keeping retry timing a
	// pure function of configuration. 0 selects a fixed default seed.
	HandshakeSeed int64
	// Obs attaches the observability layer: handshake/RTO/stall trace
	// events and registry-backed counters, under run "0". nil (the
	// default) keeps the sender on its disabled nil-check fast path.
	Obs *obs.Observer
}

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
// single-threaded contract of cc.Controller.
type Sender struct {
	cfg   SenderConfig
	conn  *net.UDPConn
	ctrl  cc.Controller
	clock Clock

	start time.Time

	ctrs senderCounters
	obs  *obs.Observer // nil unless cfg.Obs was set

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
	if cfg.Clock == nil {
		cfg.Clock = SystemClock()
	}
	if cfg.HandshakeTimeout == 0 {
		cfg.HandshakeTimeout = 3 * time.Second
	}
	if cfg.HandshakeAttempts <= 0 {
		cfg.HandshakeAttempts = 5
	}
	if cfg.HandshakeSeed == 0 {
		cfg.HandshakeSeed = 1
	}
	s := &Sender{
		cfg:    cfg,
		conn:   conn,
		ctrl:   ctrl,
		clock:  cfg.Clock,
		start:  cfg.Clock.Now(),
		obs:    cfg.Obs,
		ackCh:  make(chan Header, 1024),
		errCh:  make(chan error, 8),
		stopCh: make(chan struct{}),
		doneCh: make(chan struct{}),
	}
	s.rtt = stats.NewSummary(1024)
	if s.obs != nil {
		label := func(name string) string {
			return obs.Labeled(name, "flow", strconv.Itoa(int(cfg.Flow)), "run", "0")
		}
		s.obs.RegisterCounter(label("transport_sent_total"), &s.ctrs.sent)
		s.obs.RegisterCounter(label("transport_acked_total"), &s.ctrs.acked)
		s.obs.RegisterCounter(label("transport_losses_total"), &s.ctrs.losses)
		s.obs.RegisterCounter(label("transport_timeouts_total"), &s.ctrs.timeouts)
		s.obs.RegisterCounter(label("transport_handshake_retries_total"), &s.ctrs.handshakeRetries)
		s.obs.RegisterCounter(label("transport_stalls_total"), &s.ctrs.stalls)
		if v, ok := ctrl.(obs.Observable); ok {
			v.Observe(s.obs, 0, int(cfg.Flow))
		}
	}
	if cfg.HandshakeTimeout > 0 {
		if err := s.handshake(); err != nil {
			conn.Close()
			return nil, err
		}
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
	rng := rand.New(rand.NewSource(s.cfg.HandshakeSeed))
	deadline := s.clock.Now().Add(s.cfg.HandshakeTimeout)
	buf := make([]byte, maxPacket)
	synBuf := make([]byte, 0, headerSize)
	wait := 100 * time.Millisecond
	var attempts int
	for attempts = 0; attempts < s.cfg.HandshakeAttempts; attempts++ {
		now := s.clock.Now()
		if !now.Before(deadline) {
			break
		}
		if attempts > 0 {
			s.ctrs.handshakeRetries.Inc()
		}
		s.emitHandshake("probe", attempts+1)
		syn := Header{Type: typeSyn, Flow: s.cfg.Flow, SentNanos: now.UnixNano()}
		synBuf = syn.Marshal(synBuf[:0])
		if _, err := s.conn.Write(synBuf); err != nil {
			// Likely ICMP unreachable surfaced on the connected socket;
			// back off and retry within the budget like any lost probe.
			s.sleepUntilNextAttempt(&wait, rng, deadline)
			continue
		}
		jitter := time.Duration(float64(wait) * 0.25 * (rng.Float64()*2 - 1))
		attemptDeadline := now.Add(wait + jitter)
		if attemptDeadline.After(deadline) {
			attemptDeadline = deadline
		}
		s.conn.SetReadDeadline(attemptDeadline)
		got := false
		for {
			n, err := s.conn.Read(buf)
			if err != nil {
				break // attempt deadline, or unreachable; retry
			}
			if h, err := ParseHeader(buf[:n]); err == nil && h.Type == typeSynAck {
				got = true
				break
			}
			// Anything else (stray data, corrupt datagram) is ignored.
		}
		if got {
			s.conn.SetReadDeadline(time.Time{})
			s.emitHandshake("ok", attempts+1)
			return nil
		}
		wait *= 2
	}
	s.conn.SetReadDeadline(time.Time{})
	s.emitHandshake("fail", attempts)
	return fmt.Errorf("%w: no answer from %v after %d probes over %v",
		ErrHandshakeFailed, s.conn.RemoteAddr(), attempts, s.clock.Now().Sub(s.start))
}

// emitHandshake records a control-channel handshake phase when tracing is
// attached. At is the Clock offset since the sender started — the
// transport's virtual time axis.
func (s *Sender) emitHandshake(phase string, attempt int) {
	if s.obs == nil {
		return
	}
	s.obs.Emit(&obs.Event{At: s.now(), Kind: obs.KindHandshake, Flow: int32(s.cfg.Flow), Str: phase, V0: float64(attempt)})
}

// sleepUntilNextAttempt burns the current backoff interval (with jitter)
// when the probe could not even be written, without exceeding the deadline.
// It waits on the socket (which has a read deadline set) rather than the
// scheduler, keeping the clock the single time source.
func (s *Sender) sleepUntilNextAttempt(wait *time.Duration, rng *rand.Rand, deadline time.Time) {
	jitter := time.Duration(float64(*wait) * 0.25 * (rng.Float64()*2 - 1))
	until := s.clock.Now().Add(*wait + jitter)
	if until.After(deadline) {
		until = deadline
	}
	s.conn.SetReadDeadline(until)
	buf := make([]byte, maxPacket)
	for {
		if _, err := s.conn.Read(buf); err != nil {
			break
		}
	}
	*wait *= 2
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

func (s *Sender) now() time.Duration { return s.clock.Now().Sub(s.start) }

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

func (s *Sender) run() {
	defer close(s.doneCh)
	interval := s.ctrl.TickInterval()
	hasTick := interval > 0
	if !hasTick {
		interval = housekeep
	}
	ticker := s.clock.NewTicker(interval)
	defer ticker.Stop()
	s.host = netsim.NewHost(s.ctrl, s.now())
	s.trySend()
	for {
		select {
		case <-s.stopCh:
			return
		case h := <-s.ackCh:
			s.handleAck(h)
		case <-ticker.C():
			now := s.now()
			if hasTick {
				s.ctrl.Tick(now)
			}
			s.checkTimers(now)
			s.trySend()
		}
	}
}

func (s *Sender) trySend() {
	now := s.now()
	n := s.host.Allowance(now)
	buf := make([]byte, 0, headerSize+payloadBytes)
	for i := 0; i < n; i++ {
		window := s.ctrl.SendTag()
		h := Header{
			Type:      typeData,
			Flow:      s.cfg.Flow,
			Seq:       s.host.NextSeq(),
			SentNanos: s.clock.Now().UnixNano(),
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
func (s *Sender) handleAck(h Header) {
	rtt, losses, ok := s.host.Ack(s.now(), h.Seq, headerSize+payloadBytes)
	if !ok {
		return
	}
	s.stalled = false // ack progress closes any open stall episode
	s.ctrs.acked.Inc()
	s.ctrs.losses.Add(int64(losses))
	s.mu.Lock()
	s.rtt.Add(rtt.Seconds())
	s.mu.Unlock()
	s.trySend()
}

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
	if s.obs != nil {
		s.obs.Emit(&obs.Event{At: now, Kind: obs.KindRTO, Flow: int32(s.cfg.Flow),
			V0: float64(backoff), V1: next.Seconds()})
		if openStall {
			s.obs.Emit(&obs.Event{At: now, Kind: obs.KindStall, Flow: int32(s.cfg.Flow), V0: float64(backoff)})
		}
	}
	if openStall {
		// Graceful degradation instead of a silent wedge: the sender keeps
		// probing (the RTO backoff continues), but the application learns
		// the path is dark and can decide to tear down.
		s.pushErr(fmt.Errorf("transport: flow %d stalled: no ack progress through %d consecutive RTOs (next backoff %v); still probing",
			s.cfg.Flow, backoff, next))
	}
}
