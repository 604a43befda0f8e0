package netsim

// SameCell touches only the Sim the worker was scheduled on.
func SameCell(m *Mesh) {
	sim := m.Cell(0)
	sim.Schedule(5, func() {
		sim.Schedule(1, func() {})
	})
}

// LoopWiring is the repository's topology-setup idiom: the cell index is
// a loop variable, so provenance is unknown and the analyzer stays quiet
// (the check is one-sided by design).
func LoopWiring(m *Mesh, n int) {
	for i := 0; i < n; i++ {
		sim := m.Cell(i)
		peer := m.Cell((i + 1) % n)
		sim.Schedule(5, func() {
			_ = peer.Now()
		})
	}
}

// OutboxDetour sends the cross-cell effect through the mesh API, which
// respects the lookahead barrier.
func OutboxDetour(m *Mesh) {
	src := m.Cell(0)
	src.Schedule(5, func() {
		m.SendPacket(0, 1, 7, &Packet{})
	})
}

// JoinDegrades: after the branch joins, sim's provenance is ambiguous,
// so the worker's home cell is unknown and nothing is reported.
func JoinDegrades(m *Mesh, flip bool) {
	sim := m.Cell(0)
	if flip {
		sim = m.Cell(1)
	}
	target := m.Cell(1)
	sim.Schedule(1, func() {
		_ = target.Now()
	})
}
