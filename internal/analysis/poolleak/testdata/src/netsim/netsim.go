// Package netsim is a poolleak fixture: a miniature of the simulator
// core's pool and datapath surface, just enough shape for the custody
// dataflow to classify sources, releases, and transfers.
package netsim

// Packet mirrors the real pooled type.
type Packet struct {
	Flow  int
	Seq   int64
	Bytes int
}

// Sim mirrors the pool owner and scheduler.
type Sim struct {
	free     []*Packet
	heap     []*Packet
	inflight []*Packet
}

// NewPacket checks a packet out of the pool.
func (s *Sim) NewPacket(flow int, seq int64) *Packet {
	if n := len(s.free); n > 0 {
		p := s.free[n-1]
		s.free = s.free[:n-1]
		p.Flow, p.Seq = flow, seq
		return p
	}
	return &Packet{Flow: flow, Seq: seq} //lint:poolleak pool-internal -- the fixture pool's own growth path
}

// ClonePacket checks out a copy of p. Its own body is custody-clean: the
// fresh packet is returned to the caller.
func (s *Sim) ClonePacket(p *Packet) *Packet {
	q := s.NewPacket(p.Flow, p.Seq)
	q.Bytes = p.Bytes
	return q
}

// FreePacket returns a packet to the pool.
func (s *Sim) FreePacket(p *Packet) {
	s.free = append(s.free, p)
}

// SchedulePacket hands the packet to the event heap until delivery.
func (s *Sim) SchedulePacket(at int64, p *Packet) {
	s.heap = append(s.heap, p)
}

// SchedulePacketAfter is SchedulePacket with a relative deadline.
func (s *Sim) SchedulePacketAfter(d int64, p *Packet) {
	s.heap = append(s.heap, p)
}

// Schedule runs a callback at the given virtual time.
func (s *Sim) Schedule(at int64, fn func()) {}

// Mesh mirrors the multi-cell router.
type Mesh struct{}

// SendPacket moves the packet into the destination cell's outbox.
func (m *Mesh) SendPacket(src, dst int, delay int64, p *Packet) {}

// Link mirrors the datapath ingress.
type Link struct{}

// Send takes custody of p for delivery.
func (l *Link) Send(p *Packet) {}
