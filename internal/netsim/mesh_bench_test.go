package netsim

import (
	"fmt"
	"testing"
	"time"
)

// runMeshWorkload is the fixed 8-cell workload behind BenchmarkMeshSharded
// and the alloc-ceiling pin: every cell runs a dense self-rescheduling timer
// train with synthetic per-event protocol work, and every fifth event sends
// a pooled packet to the next cell over the mesh. Cross-cell traffic rides
// SendPacket — receiver + pooled packet, no closures — so the steady state
// exercises the pooled zero-alloc path end to end. With phased set, cell c does
// its per-event work only in windows w with w%4 == c%4, so cells {0,4},
// {1,5}, {2,6} and {3,7} are busy in turn — the shape of a metro sweep, whose
// controllers tick at a phase set by the sector number (DESIGN.md §7).
func runMeshWorkload(b *testing.B, shards, work int, phased bool) {
	const (
		cells     = 8
		lookahead = time.Millisecond
		tick      = 50 * time.Microsecond
		until     = 100 * time.Millisecond
	)
	var totalEvents int64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := NewMesh(cells, lookahead)
		counts := make([]int64, cells)
		sink := 0.0
		// One receiver per cell: counts the arrival and releases the packet
		// into the receiving cell's pool (ownership migrates with the packet).
		recvs := make([]ReceiverFunc, cells)
		for c := 0; c < cells; c++ {
			c := c
			sim := m.Cell(c)
			recvs[c] = func(p *Packet) {
				counts[c]++
				sim.FreePacket(p)
			}
		}
		for c := 0; c < cells; c++ {
			c := c
			sim := m.Cell(c)
			var step func()
			step = func() {
				counts[c]++
				// A dash of floating-point work stands in for per-packet
				// congestion-control arithmetic, so the benchmark measures
				// more than bare heap churn.
				x := float64(counts[c])
				if !phased || int(sim.Now()/lookahead)%4 == c%4 {
					for k := 0; k < work; k++ {
						x = x*1.0000001 + float64(k)
					}
				}
				if c == 0 {
					sink += x // defeat dead-code elimination (single writer: cell 0)
				}
				if counts[c]%5 == 0 {
					dst := (c + 1) % cells
					p := sim.NewPacket(c, counts[c], 1400, sim.Now(), 0)
					m.SendPacket(c, dst, lookahead, recvs[dst], p)
				}
				if sim.Now()+tick <= until {
					sim.Schedule(sim.Now()+tick, step)
				}
			}
			sim.Schedule(sim.Now()+tick, step)
		}
		if shards == 0 {
			m.RunSingle(until)
		} else {
			m.RunSharded(until, shards)
		}
		for _, n := range counts {
			totalEvents += n
		}
	}
	b.ReportMetric(float64(totalEvents)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkMeshSharded measures event throughput (events/sec, reported as a
// custom metric) of the mesh executors. The "light" variant (32 flops/event)
// is barrier-dominated — windowed execution beats the single-heap scan but
// extra workers do not pay; the "heavy" variant (2048 flops/event, the order
// of a real Verus profile lookup + window computation) is where shard
// parallelism shows through; the "phased" variant is heavy in two cells per
// window, four windows to the round, which is what a placement of cells on
// workers can get wrong and claiming cannot. The single-heap reference is the
// scaling baseline. README.md "Benchmarks" keeps the numbers from before and
// after the packet pool; the committed benchmark's netsim.mesh.* rungs
// measure the mesh today.
func BenchmarkMeshSharded(b *testing.B) {
	for _, w := range []struct {
		name   string
		work   int
		phased bool
	}{{"light", 32, false}, {"heavy", 2048, false}, {"phased", 2048, true}} {
		w := w
		b.Run(w.name+"/single-heap", func(b *testing.B) { runMeshWorkload(b, 0, w.work, w.phased) })
		for _, shards := range []int{1, 2, 4, 8} {
			shards := shards
			b.Run(fmt.Sprintf("%s/shards-%d", w.name, shards), func(b *testing.B) { runMeshWorkload(b, shards, w.work, w.phased) })
		}
	}
}

// meshAllocCeiling pins BenchmarkMeshSharded heavy/single-heap allocs/op.
// The pre-pool baseline was ~3,300 allocs/op (one boxed closure per
// cross-cell send plus per-packet event closures); the pooled path leaves
// only per-iteration setup — the mesh, cells, receivers, and first-lap
// warm-up of heaps, rings, and pools — observed at ~530/op while each pool
// miss was an allocation of its own, and at 133/op since misses take their
// packets from 256-packet slabs. The ceiling sits just above 133, so CI
// fails if per-packet or per-miss allocation sneaks back onto the path.
const meshAllocCeiling = 150

// TestMeshShardedAllocCeiling is the bench-diff gate: it runs the heavy
// single-heap workload under testing.Benchmark and fails on regression above
// meshAllocCeiling. A Go test rather than CI-side benchmark parsing, so it
// guards local runs too.
func TestMeshShardedAllocCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("bench-diff gate skipped in -short")
	}
	res := testing.Benchmark(func(b *testing.B) { runMeshWorkload(b, 0, 2048, false) })
	if a := res.AllocsPerOp(); a > meshAllocCeiling {
		t.Fatalf("BenchmarkMeshSharded heavy/single-heap allocates %d/op, above the pinned ceiling %d (pre-pool baseline ~3300, pre-slab ~530)", a, meshAllocCeiling)
	}
}
