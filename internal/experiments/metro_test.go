package experiments

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/cellular"
)

// metroTestOptions is a scaled-down sweep that still exercises every moving
// part: multiple sectors, mobile users handing over mid-run, cross-shard
// detour traffic, and all three protocols.
func metroTestOptions(shards int) MetroOptions {
	return MetroOptions{
		Sectors:       4,
		FlowCounts:    []int{24},
		Duration:      2 * time.Second,
		Shards:        shards,
		Tech:          cellular.TechLTE,
		HandoverScale: 0.02,
		Seed:          7,
		Parallel:      2,
	}
}

// TestMetroExecutorEquivalence is the ISSUE acceptance gate in miniature: the
// rendered metro figures must be byte-identical whether each trial's mesh
// runs on the single-heap reference executor (Shards: 0) or sharded across
// any worker count.
func TestMetroExecutorEquivalence(t *testing.T) {
	ref, err := Metro(metroTestOptions(0))
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Render()
	if len(want) < 100 || !strings.Contains(want, "Verus") {
		t.Fatalf("implausible render:\n%s", want)
	}
	for _, p := range ref.Points {
		if p.Handovers == 0 || p.CrossMsgs == 0 {
			t.Errorf("%s point saw %d handovers / %d cross messages; the trial never exercised the mesh",
				p.Protocol, p.Handovers, p.CrossMsgs)
		}
		if p.AggMbps <= 0 {
			t.Errorf("%s delivered nothing", p.Protocol)
		}
	}
	for _, shards := range []int{1, 4, 8} {
		got, err := Metro(metroTestOptions(shards))
		if err != nil {
			t.Fatal(err)
		}
		if g := got.Render(); g != want {
			t.Errorf("sharded-%d render diverges from single-heap reference:\n--- single\n%s\n--- sharded-%d\n%s",
				shards, want, shards, g)
		}
	}
}

// TestMetroChurnEquivalence extends the executor-equivalence gate to user
// churn: with a third of the users arriving and departing mid-run, the render
// must still be byte-identical across the single-heap reference and every
// shard count, and across serial vs pooled trial scheduling. It also proves
// churn is not a no-op (the render differs from the churn-free run) and that
// zero churn leaves the original schedule untouched (ChurnFrac: 0 matches
// the pre-churn construction bit for bit — guaranteed by gating every churn
// RNG draw on ChurnFrac > 0).
func TestMetroChurnEquivalence(t *testing.T) {
	churnOpts := func(shards, parallel int) MetroOptions {
		o := metroTestOptions(shards)
		o.ChurnFrac = 1.0 / 3.0
		o.Parallel = parallel
		return o
	}
	ref, err := Metro(churnOpts(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Render()
	baseline, err := Metro(metroTestOptions(0))
	if err != nil {
		t.Fatal(err)
	}
	if want == baseline.Render() {
		t.Fatal("churn run renders identically to the churn-free run; churn schedule is not wired")
	}
	for _, p := range ref.Points {
		if p.AggMbps <= 0 {
			t.Errorf("%s delivered nothing under churn", p.Protocol)
		}
	}
	for _, shards := range []int{1, 4, 8} {
		got, err := Metro(churnOpts(shards, 2))
		if err != nil {
			t.Fatal(err)
		}
		if g := got.Render(); g != want {
			t.Errorf("churn sharded-%d render diverges from single-heap serial reference:\n--- single\n%s\n--- sharded-%d\n%s",
				shards, want, shards, g)
		}
	}
}

func TestMetroRejectsBadChurn(t *testing.T) {
	for _, c := range []float64{-0.1, 1.5, math.NaN()} {
		o := metroTestOptions(0)
		o.ChurnFrac = c
		if _, err := Metro(o); err == nil {
			t.Errorf("churn fraction %v accepted", c)
		}
	}
}

func TestMetroRejectsBadHandoverScale(t *testing.T) {
	for _, c := range []float64{-1, math.NaN(), math.Inf(1), 1e300} {
		o := metroTestOptions(0)
		o.HandoverScale = c
		if _, err := Metro(o); err == nil {
			t.Errorf("handover scale %v accepted", c)
		}
	}
}

// TestMetroShardStress is the CI metro-smoke workload: a larger topology run
// sharded at 4 and at 8 so the race detector (CI runs this test under -race)
// sweeps the worker handoff paths under real contention, and serial trial
// scheduling (Parallel: 1) must match the default pool.
func TestMetroShardStress(t *testing.T) {
	opts := MetroOptions{
		Sectors:       8,
		FlowCounts:    []int{48},
		Duration:      2 * time.Second,
		Shards:        4,
		Tech:          cellular.Tech3G,
		HandoverScale: 0.02,
		Seed:          11,
	}
	ref, err := Metro(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Shards = 8
	opts.Parallel = 1
	got, err := Metro(opts)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Render() != got.Render() {
		t.Error("sharded-4/pooled and sharded-8/serial renders diverge")
	}
}

func TestMetroRejectsBadFlowCounts(t *testing.T) {
	for _, n := range []int{0, -5} {
		if _, err := Metro(MetroOptions{FlowCounts: []int{n}}); err == nil {
			t.Errorf("flow count %d accepted", n)
		}
	}
}

// TestQuickMetroOptionsShape pins the reduced profile the -quick CLI path
// uses so an accidental scale-up does not silently make smoke runs minutes
// long.
func TestQuickMetroOptionsShape(t *testing.T) {
	q := QuickMetroOptions()
	if q.Sectors != 4 || len(q.FlowCounts) != 1 || q.FlowCounts[0] != 64 || q.Duration != 6*time.Second {
		t.Errorf("quick profile drifted: %+v", q)
	}
	d := DefaultMetroOptions()
	if d.Sectors != 8 || len(d.FlowCounts) != 3 {
		t.Errorf("default profile drifted: %+v", d)
	}
}

// TestMetroBuildAllocs pins what building a metro trial allocates per flow,
// at the benchmark's shape: 1000 flows over 8 sectors for 1.5 s, a third of
// them churning, handovers compressed 50×. Per flow that is a share of what
// grows with the flow count: the registry, the event heap, the Sim's source
// and callback arenas. The controllers (with Sprout's belief rows), the
// Sources with their first delay samples, the user states, the handover
// receivers, the handover trains and the per-sector user lists are one
// slice or a few chunks each. The counts are 0.60 for Verus, 0.59 for Cubic
// and 0.62 for Sprout (1.59, 1.59 and 2.60 when each controller was built on
// its own, 4.85, 4.86 and 5.86 when each Source, its sample buffer and each
// handover's callback were objects of their own too and the registry a map,
// and 11.16, 10.16 and 13.17 when every user state, sink, metrics block and
// event was too); the ceilings leave 10 % headroom.
func TestMetroBuildAllocs(t *testing.T) {
	opts := DefaultMetroOptions()
	opts.Sectors, opts.Duration, opts.ChurnFrac, opts.HandoverScale = 8, 1500*time.Millisecond, 0.3, 0.02
	const flows = 1000
	ceiling := map[string]float64{"Verus (R=6)": 0.66, "TCP Cubic": 0.65, "Sprout": 0.68}
	for _, mk := range metroProtocols() {
		perFlow := testing.AllocsPerRun(1, func() { metroBuild(opts, mk, flows, 42) }) / flows
		t.Logf("%s: %.2f allocs per flow", mk.Name, perFlow)
		if c, ok := ceiling[mk.Name]; !ok || perFlow > c {
			t.Errorf("%s: metroBuild allocates %.2f times per flow, ceiling %v", mk.Name, perFlow, c)
		}
	}
}

// TestMetroTrialAllocs pins what a whole metro trial allocates per flow —
// build, run and collect — at TestMetroBuildAllocs' shape, the benchmark's.
// Past the build that is each flow's growth while it runs: the delay
// profile's knots and the spline's rows past their first eight knots,
// in-flight rings past their first sixteen entries, delay samples past their
// first 64, and the collect's merge. The counts are 2.19 for Verus, 1.55 for
// Cubic and 1.63 for Sprout (3.69, 2.55 and 3.61 when each controller was
// built on its own and the spline's rows started on the heap, 13.40, 5.05
// and 7.12 when the profile's knots, the 1 s windows and the in-flight ring
// also grew from empty); the ceilings leave 10 % headroom.
func TestMetroTrialAllocs(t *testing.T) {
	opts := DefaultMetroOptions()
	opts.Sectors, opts.Duration, opts.ChurnFrac, opts.HandoverScale = 8, 1500*time.Millisecond, 0.3, 0.02
	const flows = 1000
	ceiling := map[string]float64{"Verus (R=6)": 2.41, "TCP Cubic": 1.71, "Sprout": 1.79}
	for _, mk := range metroProtocols() {
		perFlow := testing.AllocsPerRun(1, func() { metroTrial(opts, mk, flows, 42) }) / flows
		t.Logf("%s: %.2f allocs per flow", mk.Name, perFlow)
		if c, ok := ceiling[mk.Name]; !ok || perFlow > c {
			t.Errorf("%s: a metro trial allocates %.2f times per flow, ceiling %v", mk.Name, perFlow, c)
		}
	}
}
