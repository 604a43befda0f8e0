package netsim

// CrossTouch schedules work on cell 0's Sim and then calls straight into
// cell 1's Sim from inside the worker — a data race under RunSharded.
func CrossTouch(m *Mesh) {
	a := m.Cell(0)
	b := m.Cell(1)
	a.Schedule(5, func() {
		b.Schedule(1, func() {}) // want `touches cell 1`
	})
}

// CrossRead reads another cell's clock from a worker; reads race too,
// and serial vs sharded runs would disagree on the value.
func CrossRead(m *Mesh) {
	home := m.Cell(2)
	other := m.Cell(3)
	home.Schedule(1, func() {
		_ = other.Now() // want `touches cell 3`
	})
}

// CopiedOrigin: provenance follows the copy; aliasing does not launder
// the cell identity.
func CopiedOrigin(m *Mesh) {
	a := m.Cell(0)
	b := m.Cell(1)
	alias := b
	a.Schedule(2, func() {
		alias.Schedule(9, func() {}) // want `touches cell 1`
	})
}
