package netsim

// slabPool grows by blocks of packets instead of one literal per miss.
type slabPool struct {
	slab []Packet
	ring []*Packet
}

// refill is the pool's own slab: the one sanctioned make of packets.
func (sp *slabPool) refill() {
	//lint:poolleak pool-internal -- the fixture pool's slab; every consumer goes through NewPacket
	sp.slab = make([]Packet, 256)
}

// BareSlab makes packets in bulk outside the pool.
func BareSlab(n int) []Packet {
	return make([]Packet, n) // want `make\(\[\]Packet\) bypasses the packet pool`
}

// BareSlabCap is the same with a capacity.
func BareSlabCap(n int) []Packet {
	return make([]Packet, 0, n) // want `make\(\[\]Packet\) bypasses the packet pool`
}

// BareNew makes one packet without a literal.
func BareNew() *Packet {
	return new(Packet) // want `new\(Packet\) bypasses the packet pool`
}

// Ring allocates pointer slots, not packets: a queue's ring is clean.
func (sp *slabPool) Ring(n int) {
	sp.ring = make([]*Packet, n)
}

// Other types are untouched.
func Other(n int) ([]int, *int) {
	return make([]int, n), new(int)
}
