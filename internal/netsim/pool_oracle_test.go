package netsim

import (
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// Slab pool ≡ one-allocation-per-miss pool. refPool is the packet pool as it
// was before misses took their packets from slabs: get is kept verbatim but
// for its receiver, and put is FreePacket's pool half. Both pools run the
// same seeded drive and must agree on every counter, hand out the same
// earlier-freed packet on every reuse, and never alias two live packets.

type refPool struct {
	free  []*Packet
	owed  int
	stats PacketPoolStats
}

// get returns a packet with unspecified field values; every caller must
// overwrite all of them.
func (pp *refPool) get() *Packet {
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
	//lint:poolleak pool-internal -- the pool's own backing allocation: every other &Packet{} in sim code must go through NewPacket/ClonePacket
	return &Packet{}
}

func (pp *refPool) put(p *Packet) {
	p.markFreed()
	pp.stats.Frees++
	pp.free = append(pp.free, p)
}

// loadDebt is what WalkState does to a pool on a checkpoint load: the free
// list becomes a depth owed to later gets.
func loadDebt(free *[]*Packet, owed *int) {
	depth := len(*free) + *owed
	clear(*free)
	*free, *owed = (*free)[:0], depth
}

// poolOp is one step of the seeded drive: 0 NewPacket, 1 ClonePacket of
// live[i], 2 FreePacket of live[i], 3 a checkpoint load of the free list.
type poolOp struct {
	kind int
	i    int
}

// poolDrive draws n operations. The live set breathes in phases — long
// stretches that mostly check out, then mostly release — so the drive
// misses in bursts far beyond one slab and also reuses deep into the free
// list. Debt is loaded a few times part-way.
func poolDrive(seed int64, n int) []poolOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]poolOp, 0, n)
	live := 0
	grow := true
	for len(ops) < n {
		if rng.Intn(2000) == 0 {
			grow = !grow
		}
		if len(ops) == n/3 || len(ops) == 2*n/3 || rng.Intn(20000) == 0 {
			ops = append(ops, poolOp{kind: 3})
			continue
		}
		out := 80
		if !grow {
			out = 20
		}
		switch r := rng.Intn(100); {
		case live == 0 || r < out-10:
			ops = append(ops, poolOp{kind: 0})
			live++
		case r < out:
			ops = append(ops, poolOp{kind: 1, i: rng.Intn(live)})
			live++
		default:
			ops = append(ops, poolOp{kind: 2, i: rng.Intn(live)})
			live--
		}
	}
	return ops
}

// removeAt deletes live[i] by moving the last element into its slot.
func removeAt(live []*Packet, i int) []*Packet {
	last := len(live) - 1
	live[i] = live[last]
	live[last] = nil
	return live[:last]
}

func TestSlabPoolMatchesReference(t *testing.T) {
	const nOps = 200_000
	ops := poolDrive(11, nOps)
	sim := NewSim()
	var ref refPool
	var live, refLive []*Packet
	// ids numbers each packet at its first appearance, per pool; a get must
	// return the same id from both pools, so every reuse picks the same
	// earlier-freed packet.
	ids := map[*Packet]int{}
	refIDs := map[*Packet]int{}
	isLive := map[*Packet]bool{}
	ident := func(m map[*Packet]int, p *Packet) int {
		id, ok := m[p]
		if !ok {
			id = len(m)
			m[p] = id
		}
		return id
	}
	checkout := func(step int, p, q *Packet) {
		if isLive[p] {
			t.Fatalf("op %d: the pool handed out a packet that is still live", step)
		}
		isLive[p] = true
		if a, b := ident(ids, p), ident(refIDs, q); a != b {
			t.Fatalf("op %d: got packet #%d, reference got #%d", step, a, b)
		}
		live, refLive = append(live, p), append(refLive, q)
	}
	debts := 0
	for step, op := range ops {
		switch op.kind {
		case 0:
			p := sim.NewPacket(step, int64(step), 1400, time.Duration(step), 2)
			q := ref.get()
			checkout(step, p, q)
		case 1:
			p := sim.ClonePacket(live[op.i])
			q := ref.get()
			*q = *refLive[op.i]
			checkout(step, p, q)
		case 2:
			p := live[op.i]
			delete(isLive, p)
			sim.FreePacket(p)
			ref.put(refLive[op.i])
			live, refLive = removeAt(live, op.i), removeAt(refLive, op.i)
		case 3:
			// The dropped free packets never come back: a get that pays the
			// debt is a fresh packet, with a fresh id, in both pools.
			loadDebt(&sim.pool.free, &sim.pool.owed)
			loadDebt(&ref.free, &ref.owed)
			debts++
		}
		if sim.pool.stats != ref.stats || sim.pool.owed != ref.owed || len(sim.pool.free) != len(ref.free) {
			t.Fatalf("op %d (kind %d): pool %+v owed %d free %d, reference %+v owed %d free %d", step, op.kind,
				sim.pool.stats, sim.pool.owed, len(sim.pool.free), ref.stats, ref.owed, len(ref.free))
		}
	}
	st := sim.PoolStats()
	if debts < 2 || st.Allocated < 4*slabSize || st.Frees == 0 {
		t.Fatalf("drive too tame: %d debt loads, %+v", debts, st)
	}
}

// TestSlabPoolAllocsPerMiss is the guard that the slab path ran: the same
// drive on the pool alone makes many slabs' worth of misses, and its heap
// allocations are one per slab plus the free list's and the live set's
// growth, not one per miss.
func TestSlabPoolAllocsPerMiss(t *testing.T) {
	ops := poolDrive(11, 200_000)
	sim := NewSim()
	live := make([]*Packet, 0, len(ops))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	debt := 0 // free-list entries turned into owed gets
	for step, op := range ops {
		switch op.kind {
		case 0:
			live = append(live, sim.NewPacket(step, int64(step), 1400, 0, 2))
		case 1:
			live = append(live, sim.ClonePacket(live[op.i]))
		case 2:
			sim.FreePacket(live[op.i])
			live = removeAt(live, op.i)
		case 3:
			debt += len(sim.pool.free)
			loadDebt(&sim.pool.free, &sim.pool.owed)
		}
	}
	runtime.ReadMemStats(&after)
	// Every get the free list could not serve took a slab packet: the
	// counted misses and the debt paid off.
	misses := sim.PoolStats().Allocated + uint64(debt-sim.pool.owed)
	mallocs := after.Mallocs - before.Mallocs
	if misses < 4*slabSize {
		t.Fatalf("only %d misses: the drive never refilled a slab", misses)
	}
	// 64 covers the free list's doublings and the runtime's own noise.
	if limit := misses/slabSize + 64; mallocs > limit {
		t.Fatalf("%d misses cost %d heap allocations, want at most %d (one per %d-packet slab)", misses, mallocs, limit, slabSize)
	}
	t.Logf("%d misses, %d heap allocations", misses, mallocs)
}
