package netsim

// Cells returns the number of cells, for the external tests.
func (m *Mesh) Cells() int { return len(m.cells) }

// orderKeyParts splits a composite order key back into (cell, seq), the
// inverse of orderKey.
func orderKeyParts(key uint64) (cell uint32, seq uint64) {
	return uint32(key >> cellSeqBits), key & cellSeqMask
}
