// Package cc defines the congestion-controller interface shared by the Verus
// protocol, the legacy TCP baselines, and the Sprout-like forecaster. A
// Controller is a pure decision engine: it never touches sockets or
// simulator internals, so the same implementation runs unchanged inside the
// discrete-event simulator (internal/netsim) and the real UDP transport
// (internal/transport).
//
// The host that calls a Controller is one implementation too: netsim.Host
// does the sequencing, RTT estimation, loss detection and retransmission
// timeout on both paths (netsim.Source embeds it, transport.Sender holds
// one), so the two feed a controller the same calls with the same arguments.
package cc

import "time"

// AckSample carries everything a controller may need from one received
// acknowledgement.
type AckSample struct {
	// Seq is the sequence number of the acknowledged packet.
	Seq int64
	// RTT is the measured round-trip time of the acknowledged packet.
	RTT time.Duration
	// SentWindow is the controller-provided tag recorded when the packet
	// was sent (see Controller.SendTag). Verus uses it to attribute delays
	// to the window size that caused them.
	SentWindow int
	// Inflight is the number of unacknowledged packets once this
	// acknowledgement's packet has left the window, before any loss it
	// reveals is removed.
	Inflight int
	// Bytes is the size of the acknowledged packet.
	Bytes int
}

// LossEvent describes one detected packet loss.
type LossEvent struct {
	// Seq is the sequence number of the lost packet.
	Seq int64
	// SentWindow is the tag recorded when the lost packet was sent: the
	// paper's W_loss, "the sending window in which the loss occurred".
	SentWindow int
	// Inflight is the number of unacknowledged packets when the loss scan
	// that found this loss began (the acknowledged packet that triggered it
	// already removed), less one. Every loss one scan finds reports the same
	// value.
	Inflight int
}

// Controller is the congestion-control decision engine. All methods are
// invoked from a single goroutine (the simulator loop or the transport's
// event loop); implementations need no internal locking.
type Controller interface {
	// Name identifies the algorithm in reports (e.g. "verus", "cubic").
	Name() string

	// OnAck is invoked for every acknowledgement received.
	OnAck(now time.Duration, ack AckSample)

	// OnLoss is invoked when the host detects a packet loss (duplicate-ack
	// style or per-packet timer). Controllers implement their own recovery
	// logic, including ignoring further losses while already recovering.
	OnLoss(now time.Duration, loss LossEvent)

	// OnTimeout is invoked on a retransmission timeout (the whole window is
	// presumed lost).
	OnTimeout(now time.Duration)

	// TickInterval returns the period at which Tick must be called, or 0 if
	// the controller is purely ack-clocked. Verus returns its epoch ε.
	TickInterval() time.Duration

	// Tick advances controller time; called every TickInterval when that is
	// positive, never otherwise.
	Tick(now time.Duration)

	// Allowance reports how many packets the host may transmit right now,
	// given the current number of unacknowledged packets. Window-based
	// controllers return window − inflight; epoch-based controllers return
	// the unspent part of the current epoch's quota. The host calls this
	// after every event and sends min(Allowance, available data) packets.
	Allowance(now time.Duration, inflight int) int

	// SendTag returns the value to stamp on an outgoing packet; it is
	// echoed back in AckSample.SentWindow / LossEvent.SentWindow. Verus
	// returns its current sending window; others may return 0.
	SendTag() int

	// OnSend informs the controller that one packet was transmitted.
	OnSend(now time.Duration, seq int64, inflight int)
}
