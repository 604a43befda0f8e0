package stats

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/snap"
)

// segmentedPair drives a Summary that grows from empty, and so opens
// segments, and a contiguous one through the same operations. The contiguous
// one is the same code on a Summary presized past every sample the test adds:
// its samples never leave one slice, as every Summary's did before segments,
// so it is the parent's storage with the parent's permutations. Selection
// itself is pinned against the sort reference by
// TestSummaryMatchesSortReference.
type segmentedPair struct {
	t          *testing.T
	got, want  *Summary
	room       int // the contiguous Summary's capacity
	ops        int
	segmented  int // queries answered while got held three or more segments
	savedSegs  int // saves that walked more than one segment
	mergedSegs int // merges whose source held more than one segment
}

func (sp *segmentedPair) add(v float64) {
	sp.got.Add(v)
	sp.want.Add(v)
	sp.ops++
}

func (sp *segmentedPair) same(what string, got, want float64) {
	sp.t.Helper()
	sp.ops++
	if math.Float64bits(got) != math.Float64bits(want) {
		sp.t.Fatalf("n=%d: %s = %v (%#x), contiguous %v (%#x)",
			sp.want.N(), what, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

func (sp *segmentedPair) query(rng *rand.Rand) {
	sp.t.Helper()
	if sp.got.full != nil && len(sp.got.full.segs) >= 2 {
		sp.segmented++
	}
	if sp.got.N() != sp.want.N() {
		sp.t.Fatalf("N = %d, contiguous %d", sp.got.N(), sp.want.N())
	}
	sp.same("Mean", sp.got.Mean(), sp.want.Mean())
	sp.same("Min", sp.got.Min(), sp.want.Min())
	sp.same("Max", sp.got.Max(), sp.want.Max())
	if rng.Intn(4) == 0 {
		for _, p := range metroQuantiles {
			sp.same("Percentile", sp.got.Percentile(p), sp.want.Percentile(p))
		}
	} else {
		p := rng.Float64() * 100
		sp.same("Percentile", sp.got.Percentile(p), sp.want.Percentile(p))
	}
}

// merge folds one source into both, built from the same values: a segmented
// source into got, a contiguous one into want.
func (sp *segmentedPair) merge(vs []float64) {
	og, ow := NewSummary(0), NewSummary(len(vs))
	for _, v := range vs {
		og.Add(v)
		ow.Add(v)
	}
	if og.full != nil {
		sp.mergedSegs++
	}
	before := saveSummary(sp.t, og)
	sp.got.Merge(og)
	sp.want.Merge(ow)
	if !bytes.Equal(saveSummary(sp.t, og), before) {
		sp.t.Fatal("Merge changed its source")
	}
	sp.ops++
}

// walk saves both, requires the same bytes, and carries on with the loaded
// copies.
func (sp *segmentedPair) walk() {
	sp.t.Helper()
	if sp.got.full != nil {
		sp.savedSegs++
	}
	blob := saveSummary(sp.t, sp.got)
	if want := saveSummary(sp.t, sp.want); !bytes.Equal(blob, want) {
		sp.t.Fatalf("n=%d: a segmented save differs from the contiguous one", sp.want.N())
	}
	sp.got = loadSummary(sp.t, blob)
	d, err := snap.Decode(blob, snap.Version)
	if err != nil {
		sp.t.Fatal(err)
	}
	sp.want = NewSummary(sp.room)
	sp.want.Walk(snap.Load(d))
	if err := d.Done(); err != nil {
		sp.t.Fatal(err)
	}
	sp.ops++
}

// aggregate merges both into presized aggregates, as the metro render does
// with its flows, and compares the aggregates through every query and a save.
func (sp *segmentedPair) aggregate(rng *rand.Rand) {
	sp.t.Helper()
	ag, aw := NewSummary(sp.got.N()+1), NewSummary(sp.got.N()+1)
	ag.Merge(sp.got)
	aw.Merge(sp.want)
	agg := &segmentedPair{t: sp.t, got: ag, want: aw, room: sp.room}
	agg.query(rng)
	agg.walk()
	sp.ops += agg.ops
}

// oracleValue draws a delay-like sample, or one of the values whose order a
// sort leaves open or puts first: NaN, both zeros, both infinities, and
// repeats.
func oracleValue(rng *rand.Rand) float64 {
	switch r := rng.Intn(100); {
	case r < 4:
		return math.NaN()
	case r < 9:
		return 0
	case r < 14:
		return math.Copysign(0, -1)
	case r < 16:
		return math.Inf(1 - 2*rng.Intn(2))
	case r < 40:
		return float64(rng.Intn(50)) / 1000
	default:
		return 0.02 + rng.ExpFloat64()*0.01
	}
}

// TestSummarySegmentsMatchContiguous drives segmented and contiguous
// Summaries through more than 10⁵ identical seeded operations — Adds across
// several segment boundaries with NaN and both zeros among the values, Merges
// from segmented sources, Merges into presized aggregates, every query, and
// saves compared byte for byte and reloaded — and requires identical bits
// throughout. So that the pass cannot be vacuous it also requires that
// queries, saves and merges met summaries of several segments, and that the
// contiguous side never left one slice.
func TestSummarySegmentsMatchContiguous(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const room = 1 << 18
	var ops, segmented, savedSegs, mergedSegs int
	for trial := 0; trial < 24; trial++ {
		target := segmentMin/2 + rng.Intn([]int{12, 24, 48}[trial%3]*segmentMin)
		// A reload leaves one segment, so a third of the trials query and
		// save often, a third seldom and a third only at the end, when many
		// segments have piled up.
		queries, saves := []int{45, 2, 0}[trial%3], []int{10, 2, 0}[trial%3]
		sp := &segmentedPair{t: t, got: NewSummary(0), want: NewSummary(room), room: room}
		for sp.want.N() < target {
			switch r := rng.Intn(1000); {
			case r < queries:
				sp.query(rng)
			case r < queries+saves:
				sp.walk()
			case r < 985:
				for k := 1 + rng.Intn(32); k > 0; k-- {
					sp.add(oracleValue(rng))
				}
			case r < 995:
				vs := make([]float64, 1+rng.Intn(3*segmentMin))
				for i := range vs {
					vs[i] = oracleValue(rng)
				}
				sp.merge(vs)
			default:
				sp.aggregate(rng)
			}
			if sp.want.full != nil {
				t.Fatalf("trial %d: the contiguous reference opened a segment at n=%d", trial, sp.want.N())
			}
		}
		sp.query(rng)
		sp.walk()
		sp.same("sumSq", sp.got.sumSq, sp.want.sumSq)
		ops += sp.ops
		segmented += sp.segmented
		savedSegs += sp.savedSegs
		mergedSegs += sp.mergedSegs
	}
	if ops < 100000 {
		t.Fatalf("only %d operations compared, want at least 100000", ops)
	}
	if segmented == 0 || savedSegs == 0 || mergedSegs == 0 {
		t.Fatalf("segments went unexercised: %d queries, %d saves, %d merge sources held several", segmented, savedSegs, mergedSegs)
	}
	t.Logf("%d operations bit-identical; %d queries, %d saves and %d merge sources met several segments", ops, segmented, savedSegs, mergedSegs)
}

// TestSummaryAddAllocBytes pins what recording and querying cost. It Adds
// 10⁶ samples to an empty Summary and checks each time a segment opens, where
// what is held and what was allocated peak against the samples kept, from
// 10⁴ on, and at 10⁵. Each check first asks one Percentile, so that its cost
// counts too. The capacity held is at most 1.5 times the samples. The bytes
// allocated are at most 1.5 times the sample bytes plus 160 KB: the 60 KB of
// slices that append discards below segmentMin, and the page rounding of each
// large segment. At 10⁵ they are at most 1.6 times the sample bytes. A
// Summary that regrew one slice by append allocated 5.1 times at 10⁵, and one
// whose queries joined its segments into a fresh slice 3.2 times at its first
// check. The first check over budget ends the run: each Add after a join
// finds the joined slice full and opens a segment, so every Add would check.
func TestSummaryAddAllocBytes(t *testing.T) {
	const n, fixed = 1_000_000, 160 << 10
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	s := NewSummary(0)
	var over string
	checked := 0
	for i := 1; i <= n && over == ""; i++ {
		s.Add(float64(i))
		if i < 10_000 || len(s.samples) != 1 && i != 100_000 {
			continue
		}
		s.Percentile(95)
		runtime.ReadMemStats(&m1)
		checked++
		held := cap(s.samples)
		if s.full != nil {
			for _, seg := range s.full.segs {
				held += cap(seg)
			}
		}
		got := m1.TotalAlloc - m0.TotalAlloc
		if held > i*3/2 || got > uint64(12*i+fixed) || i == 100_000 && float64(got) > 1.6*8*float64(i) {
			over = fmt.Sprintf("n=%d holds %.3fx, allocated %d B (%.3fx)",
				i, float64(held)/float64(i), got, float64(got)/float64(8*i))
		}
		if i == 100_000 {
			t.Logf("%d Adds and %d queries allocated %d bytes, %.2fx the sample bytes", i, checked, got, float64(got)/float64(8*i))
		}
	}
	if over != "" {
		t.Fatalf("over 1.5x held, 1.5x + %d B allocated, or 1.6x at 10^5: %s", fixed, over)
	}
	if s.N() != n {
		t.Fatalf("N = %d", s.N())
	}
	if checked < 10 {
		t.Fatalf("only %d checks between 10^4 and 10^6 samples; segments went unopened", checked)
	}
}

// TestPercentileAllocs pins that a percentile query allocates nothing: on 10⁵
// samples grown by Add, which hold several segments, and on 10⁵ presized into
// one. The grown Summary must still hold its segments after the queries, so
// that a query which joined them, and allocated only the first time, fails
// here too.
func TestPercentileAllocs(t *testing.T) {
	const n = 100_000
	rng := rand.New(rand.NewSource(43))
	grown, presized := NewSummary(0), NewSummary(n)
	for range n {
		v := 0.02 + rng.ExpFloat64()*0.01
		grown.Add(v)
		presized.Add(v)
	}
	if grown.full == nil || len(grown.full.segs) < 2 {
		t.Fatal("10^5 Adds left fewer than three segments")
	}
	for _, c := range []struct {
		name string
		s    *Summary
	}{{"grown", grown}, {"presized", presized}} {
		q := 0
		allocs := testing.AllocsPerRun(20, func() {
			c.s.Percentile(metroQuantiles[1+q%7])
			q++
		})
		if allocs != 0 {
			t.Errorf("%s: a query on %d samples allocated %v times, want 0", c.name, n, allocs)
		}
	}
	if grown.full == nil {
		t.Fatal("a query joined the grown Summary's segments")
	}
}
