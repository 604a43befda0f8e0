package netsim

import (
	"sync"
	"time"
)

// referenceRunSharded is the executor RunSharded had before cells became the
// unit of a window, kept verbatim as the oracle of TestMeshClaimingOracle:
// cell i is pinned to shard i%shards, every shard is a goroutine, and each
// window is one channel round trip per shard. It shares drain, runWindow and
// the window grid with RunSharded, so the two may differ only in which
// goroutine runs a cell and how the barrier is kept.
func (m *Mesh) referenceRunSharded(until time.Duration, shards int) {
	if shards <= 0 {
		panic("netsim: shard count must be positive")
	}
	if shards > len(m.cells) {
		shards = len(m.cells)
	}
	m.drain()
	groups := make([][]*Sim, shards)
	for i, c := range m.cells {
		groups[i%shards] = append(groups[i%shards], c)
	}

	// Workers live for the whole call: one channel round-trip per shard per
	// window instead of a goroutine spawn. Within a window the cells of a
	// shard cannot interact (every cross-cell delay spans at least one
	// window), so each cell runs to the horizon independently.
	type winCmd struct {
		horizon   time.Duration
		inclusive bool
	}
	runGroup := func(g []*Sim, c winCmd) {
		for _, cell := range g {
			cell.runWindow(c.horizon, c.inclusive)
		}
	}
	var starts []chan winCmd
	var done chan struct{}
	var wg sync.WaitGroup
	if shards > 1 {
		starts = make([]chan winCmd, shards)
		done = make(chan struct{}, shards)
		for w := range groups {
			starts[w] = make(chan winCmd, 1)
			wg.Add(1)
			go func(g []*Sim, in chan winCmd) {
				defer wg.Done()
				for c := range in {
					runGroup(g, c)
					done <- struct{}{}
				}
			}(groups[w], starts[w])
		}
	}
	m.buffering = true
	window := func(horizon time.Duration, inclusive bool) {
		if shards == 1 {
			runGroup(groups[0], winCmd{horizon, inclusive})
		} else {
			for _, ch := range starts {
				ch <- winCmd{horizon, inclusive}
			}
			for range groups {
				<-done
			}
		}
		m.drain()
		m.windows++
		if m.windowHook != nil {
			m.windowHook(horizon)
		}
	}
	for m.clock < until {
		// Next grid boundary strictly past the clock, clamped to `until`.
		h := m.clock - m.clock%m.lookahead + m.lookahead
		if h > until {
			h = until
		}
		window(h, false)
		m.clock = h
	}
	// Events exactly at `until`: any message they send arrives strictly
	// after `until`, so this pass needs no further barrier.
	window(until, true)
	m.buffering = false
	if shards > 1 {
		for _, ch := range starts {
			close(ch)
		}
		wg.Wait()
	}
}

// ReferenceRunSharded exports the oracle to the external test package, where
// the random-topology generator lives (it imports faults, which imports this
// package).
func (m *Mesh) ReferenceRunSharded(until time.Duration, shards int) {
	m.referenceRunSharded(until, shards)
}
