// Package netsim is a poolrelease fixture: the simulator core, whose
// Packet type is pooled.
package netsim

import "time"

// Packet mirrors the real pooled type.
type Packet struct {
	Flow   int
	Seq    int64
	Bytes  int
	SentAt time.Duration
	Window int
}

// Sim mirrors the pool owner.
type Sim struct{ free []*Packet }

// BareSend allocates a packet outside the pool — the pattern the pool
// refactor removed from flow.go and cbr.go.
func BareSend(flow int, seq int64) *Packet {
	return &Packet{Flow: flow, Seq: seq, Bytes: 1400} // want `bypasses the packet pool`
}

// ValueCopy builds a by-value literal; it escapes the pool's accounting all
// the same once its address flows into the datapath.
func ValueCopy(seq int64) Packet {
	return Packet{Seq: seq} // want `bypasses the packet pool`
}

// Zero declares packets by value with no literal at all; each is as far
// outside the pool as a literal would be.
func Zero(seq int64) int64 {
	var p Packet     // want `var declaration bypasses the packet pool`
	var ps [4]Packet // want `var declaration bypasses the packet pool`
	p.Seq = seq
	ps[0] = p
	return ps[0].Seq
}
