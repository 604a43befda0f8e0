// Package netsim is a crossshard fixture: a miniature of the mesh and
// cell-sim surface, enough for the cell-origin dataflow to classify
// Cell() provenance and scheduling contexts.
package netsim

// Packet mirrors the pooled type (only its existence matters here).
type Packet struct{ Seq int64 }

// Sim mirrors one cell's event loop.
type Sim struct{ now int64 }

// Schedule runs fn inside this cell's shard at the given virtual time.
func (s *Sim) Schedule(at int64, fn func()) {}

// ScheduleTracked runs fn inside this cell's shard at the given virtual
// time, through a checkpointable registered callback.
func (s *Sim) ScheduleTracked(at int64, fn func()) {}

// Receiver mirrors the event-target interface.
type Receiver interface{ Receive(p *Packet) }

// RegisterFunc registers fn as a checkpointable callback of this cell;
// the receiver it returns runs fn inside this cell's shard.
func (s *Sim) RegisterFunc(fn func()) Receiver { return nil }

// Now returns the cell's virtual clock.
func (s *Sim) Now() int64 { return s.now }

// Mesh mirrors the multi-cell router.
type Mesh struct{ cells []*Sim }

// Cell returns cell i's Sim.
func (m *Mesh) Cell(i int) *Sim { return m.cells[i] }

// SendPacket routes a packet through the outbox.
func (m *Mesh) SendPacket(src, dst int, delay int64, p *Packet) {}
