// Package netsim is an unusedsuppress fixture: one directive that still
// earns its keep and one that suppresses nothing.
package netsim

// Packet mirrors the pooled type so poolleak has a literal to flag.
type Packet struct{ Seq int64 }

// grow carries the sanctioned bare literal: the directive suppresses a
// real poolleak diagnostic, so it is used and stays.
func grow() *Packet {
	//lint:poolleak pool-internal -- the fixture pool's one bare allocation
	return &Packet{}
}

// settled was fixed long ago: the literal the directive excused is gone,
// so the suppression now matches nothing.
func settled() int {
	//lint:poolleak pool-internal -- stale excuse for a literal that was poolified // want `matches no diagnostic`
	return 3
}
