package netsim

import "time"

// Packet pooling (DESIGN.md §Pool): the steady-state hot path must not touch
// the allocator, so every Packet is recycled through a per-Sim free list
// instead of being garbage. Ownership follows the timeline, not the
// allocation site: a packet is always released into the pool of the Sim
// whose event is executing at the release point, so a mesh cell only ever
// touches its own free list and sharded execution needs no synchronization
// (packets that migrate across cells simply change pools).
//
// The release points are threaded through the full packet lifecycle and
// exist exactly once per path:
//
//   - queue rejection        → linkCore.ingress
//   - i.i.d. link loss       → linkCore.finish
//   - fault-layer discards   → faults.Link (outage, stall-interrupt,
//     burst loss, corruption), via Sim.FreePacket
//   - duplication            → the copy is a pool clone (Sim.ClonePacket);
//     each copy is released independently
//   - delivery               → the flow's ack path (Source.Receive) for
//     controlled flows, the Sink for feedback-free (CBR) flows
//
// Everything else — queues, events, lookahead channels — only borrows the
// packet. Building with -tags pooldebug arms release poisoning that panics
// on double-release and use-after-release (see pooldebug_on.go).

// PacketPoolStats is a snapshot of one Sim's pool counters.
type PacketPoolStats struct {
	// Allocated counts pool misses: gets the free list could not serve, each
	// a fresh packet from the pool's current slab.
	Allocated uint64
	// Gets counts every packet handed out (NewPacket + ClonePacket).
	Gets uint64
	// Frees counts every packet returned.
	Frees uint64
}

// Live returns the number of packets currently checked out of this pool:
// gets minus frees. Note that in a mesh, packets migrate between cell pools,
// so per-cell Live can go negative; sum across cells for the topology-wide
// leak count.
func (st PacketPoolStats) Live() int64 { return int64(st.Gets) - int64(st.Frees) }

// slabSize is how many packets the pool allocates at once: a miss takes the
// next packet of the current slab, so warming a pool up costs one heap
// allocation per slabSize misses instead of one per miss.
const slabSize = 256

// packetPool is a LIFO free list of packets, owned by exactly one Sim.
type packetPool struct {
	free []*Packet
	// slab is the unused rest of the last block of packets the pool
	// allocated; misses take from its front.
	slab []Packet
	// owed is how many free-list entries a checkpoint load has not
	// materialized: the snapshot carries the list's depth, not its packets,
	// and get allocates each one only when the list would have supplied it.
	owed  int
	stats PacketPoolStats
}

// get returns a packet with unspecified field values; every caller must
// overwrite all of them.
func (pp *packetPool) get() *Packet {
	pp.stats.Gets++
	if n := len(pp.free); n > 0 {
		p := pp.free[n-1]
		pp.free[n-1] = nil
		pp.free = pp.free[:n-1]
		p.markLive()
		return p
	}
	if pp.owed > 0 {
		pp.owed-- // a reuse in the uninterrupted run, not a miss
	} else {
		pp.stats.Allocated++
	}
	if len(pp.slab) == 0 {
		//lint:poolleak pool-internal -- the pool's own backing allocation: every other Packet in sim code must go through NewPacket/ClonePacket
		pp.slab = make([]Packet, slabSize)
	}
	p := &pp.slab[0]
	pp.slab = pp.slab[1:]
	return p
}

// NewPacket checks a packet out of this Sim's pool with every field set.
// It is the only sanctioned way for simulation code to create a Packet
// (enforced by the poolleak analyzer); the packet must eventually be
// handed back with FreePacket by whichever component ends its life.
func (s *Sim) NewPacket(flow int, seq int64, bytes int, sentAt time.Duration, window int) *Packet {
	p := s.pool.get()
	p.Flow = flow
	p.Seq = seq
	p.Bytes = bytes
	p.SentAt = sentAt
	p.Window = window
	p.resetAttrib(sentAt)
	return p
}

// ClonePacket checks out a field-for-field copy of p — the duplication
// primitive: a decorator that delivers a packet twice must deliver the
// original and a clone, never the same pointer, so each copy can be
// released exactly once.
func (s *Sim) ClonePacket(p *Packet) *Packet {
	AssertLive(p, "ClonePacket")
	q := s.pool.get()
	q.Flow = p.Flow
	q.Seq = p.Seq
	q.Bytes = p.Bytes
	q.SentAt = p.SentAt
	q.Window = p.Window
	q.comps = p.comps
	q.mark = p.mark
	q.pend = p.pend
	return q
}

// FreePacket returns a packet to this Sim's free list. The caller must hold
// the only live reference; any later use is a use-after-release (caught
// under -tags pooldebug). Freeing nil is a no-op so drop paths can stay
// unconditional.
func (s *Sim) FreePacket(p *Packet) {
	if p == nil {
		return
	}
	p.markFreed()
	s.pool.stats.Frees++
	s.pool.free = append(s.pool.free, p)
}

// PoolStats returns this Sim's packet-pool counters.
func (s *Sim) PoolStats() PacketPoolStats { return s.pool.stats }

// PoolStats sums the per-cell pool counters of every cell in the mesh; its
// Live is the topology-wide count of packets not yet released.
func (m *Mesh) PoolStats() PacketPoolStats {
	var st PacketPoolStats
	for _, c := range m.cells {
		st.Allocated += c.pool.stats.Allocated
		st.Gets += c.pool.stats.Gets
		st.Frees += c.pool.stats.Frees
	}
	return st
}
