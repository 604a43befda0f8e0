package netsim

// Cells returns the number of cells, for the external tests.
func (m *Mesh) Cells() int { return len(m.cells) }
