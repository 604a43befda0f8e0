package faults

// IsZero reports whether the plan injects nothing, for the external tests.
func (p *Plan) IsZero() bool {
	return p == nil || (len(p.Events) == 0 && !p.stochastic())
}
