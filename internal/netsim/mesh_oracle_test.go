package netsim_test

import (
	"reflect"
	"testing"
	"time"
)

// oracleOutcome is what the claiming executor must share with the executor
// it replaced: the state digest of mesh_equiv_test.go (per-cell event logs,
// link, queue, fault and flow ledgers, CrossDelivered), the window count and
// each cell's pool custody (packets allocated and not yet freed).
type oracleOutcome struct {
	digest  string
	windows uint64
	live    []int64
}

// runOracleTrial runs the seed's random topology (1–8 cells, CBR flows, fault
// plans, cross-cell forwarding) with exec in three segments, as a
// checkpointing sweep does. events is what WindowStats counted.
func runOracleTrial(seed int64, exec func(m *Mesh, until time.Duration)) (o oracleOutcome, events uint64) {
	o.digest = runEquivTrial(seed, func(m *Mesh, until time.Duration) {
		for _, seg := range []time.Duration{until / 3, until/3 + time.Millisecond, until} {
			exec(m, seg)
		}
		o.windows = m.Windows()
		events, _ = m.WindowStats()
		for i := 0; i < m.Cells(); i++ {
			o.live = append(o.live, m.Cell(i).PoolStats().Live())
		}
	})
	return o, events
}

// TestMeshClaimingOracle drives the replaced static-group/channel executor
// (referenceRunSharded, kept verbatim), the single-heap reference and the
// claiming executor over as many random topologies as it takes for each to
// have run 10⁵ events at every one of 1, 2, 3 and 8 shards. Digest and pool
// custody must agree across all three; window counts between the two sharded
// executors (RunSingle has no windows).
func TestMeshClaimingOracle(t *testing.T) {
	var events uint64
	seeds := 0
	for seed := int64(100); events < 100_000; seed++ {
		single, _ := runOracleTrial(seed, func(m *Mesh, until time.Duration) { m.RunSingle(until) })
		var n uint64
		for _, shards := range []int{1, 2, 3, 8} {
			ref, _ := runOracleTrial(seed, func(m *Mesh, until time.Duration) { m.ReferenceRunSharded(until, shards) })
			var got oracleOutcome
			got, n = runOracleTrial(seed, func(m *Mesh, until time.Duration) { m.RunSharded(until, shards) })
			if !reflect.DeepEqual(got, ref) {
				t.Fatalf("seed %d shards %d: claiming executor %+v, static-group oracle %+v", seed, shards, got, ref)
			}
			if got.digest != single.digest || !reflect.DeepEqual(got.live, single.live) {
				t.Fatalf("seed %d shards %d: claiming executor %+v, single heap %+v", seed, shards, got, single)
			}
		}
		events += n
		seeds++
	}
	t.Logf("%d events per executor and shard count over %d topologies", events, seeds)
}
