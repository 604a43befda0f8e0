// Package transport is the real-network realization of the protocols in
// this repository: a UDP sender/receiver pair mirroring the paper's C++
// prototype (§5), which "uses UDP as the underlying transport protocol" with
// sequence numbers, sender timestamps, and a receiver that acknowledges
// every packet.
//
// The congestion-control logic itself is any cc.Controller (Verus, the TCP
// models, Sprout). The host duties around it (sequencing, RTT estimation, the
// §5.2 loss rules and the retransmission timeout) are a netsim.Host, the one
// the simulator runs; the transport supplies real timers and real sockets.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Packet types on the wire.
const (
	typeData = 0x01
	typeAck  = 0x02
	typeFin  = 0x03
	// typeSyn/typeSynAck are the control-channel handshake (PR 4): Dial
	// probes the receiver with typeSyn and waits for the echoed typeSynAck
	// before starting the data flow, retrying with jittered exponential
	// backoff. Before this existed, a dead or unreachable receiver wedged
	// the sender forever with no error.
	typeSyn    = 0x04
	typeSynAck = 0x05
)

// headerSize is the fixed wire-header length in bytes.
//
//	type(1) | flow(1) | seq(8) | sentNanos(8) | window(4) | length(2)
const headerSize = 24

// maxPacket bounds datagram size.
const maxPacket = 64 * 1024

// Header is the wire header shared by data packets and acknowledgements.
// For acks, SentNanos echoes the data packet's sender timestamp so the
// sender can compute the RTT without clock synchronization; Window echoes
// the send tag (the Verus sending window the packet was sent under).
type Header struct {
	Type      byte
	Flow      byte
	Seq       int64
	SentNanos int64
	Window    uint32
	Length    uint16 // payload bytes following the header (data only)
}

// ErrShortPacket is returned when a datagram cannot hold a header.
var ErrShortPacket = errors.New("transport: short packet")

// Marshal appends the wire encoding of h to buf and returns the result.
func (h Header) Marshal(buf []byte) []byte {
	var b [headerSize]byte
	b[0] = h.Type
	b[1] = h.Flow
	binary.BigEndian.PutUint64(b[2:], uint64(h.Seq))
	binary.BigEndian.PutUint64(b[10:], uint64(h.SentNanos))
	binary.BigEndian.PutUint32(b[18:], h.Window)
	binary.BigEndian.PutUint16(b[22:], h.Length)
	return append(buf, b[:]...)
}

// ParseHeader decodes a header from the start of data.
func ParseHeader(data []byte) (Header, error) {
	if len(data) < headerSize {
		return Header{}, ErrShortPacket
	}
	h := Header{
		Type:      data[0],
		Flow:      data[1],
		Seq:       int64(binary.BigEndian.Uint64(data[2:])),
		SentNanos: int64(binary.BigEndian.Uint64(data[10:])),
		Window:    binary.BigEndian.Uint32(data[18:]),
		Length:    binary.BigEndian.Uint16(data[22:]),
	}
	switch h.Type {
	case typeData, typeAck, typeFin, typeSyn, typeSynAck:
	default:
		return Header{}, fmt.Errorf("transport: unknown packet type 0x%02x", h.Type)
	}
	if h.Seq < 0 {
		return Header{}, fmt.Errorf("transport: negative sequence %d", h.Seq)
	}
	return h, nil
}
