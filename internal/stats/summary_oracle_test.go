package stats

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/snap"
)

// refSummary is the sort-based Summary that selection replaced, verbatim:
// every query sorts the samples lazily and reads the ranks off the sorted
// slice. It pins Percentile, Min and Max bit for bit, NaN-first order
// included.
type refSummary struct {
	samples []float64
	sorted  bool
	sum     float64
	sumSq   float64
}

func (s *refSummary) Add(v float64) {
	s.samples = append(s.samples, v)
	s.sum += v
	s.sumSq += v * v
	s.sorted = false
}

func (s *refSummary) Merge(o *refSummary) {
	if o == nil || len(o.samples) == 0 {
		return
	}
	s.samples = append(s.samples, o.samples...)
	s.sum += o.sum
	s.sumSq += o.sumSq
	s.sorted = false
}

func (s *refSummary) Min() float64 {
	if len(s.samples) == 0 {
		return math.Inf(1)
	}
	s.ensureSorted()
	return s.samples[0]
}

func (s *refSummary) Max() float64 {
	if len(s.samples) == 0 {
		return math.Inf(-1)
	}
	s.ensureSorted()
	return s.samples[len(s.samples)-1]
}

func (s *refSummary) Percentile(p float64) float64 {
	n := len(s.samples)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return s.Min()
	}
	if p >= 100 {
		return s.Max()
	}
	s.ensureSorted()
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.samples[lo]
	}
	frac := rank - float64(lo)
	return s.samples[lo]*(1-frac) + s.samples[hi]*frac
}

func (s *refSummary) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.samples)
		s.sorted = true
	}
}

// medianOfThreeKiller builds the input on which selectNth's pivot rule picks
// the second-smallest element of the live range every time, so each partition
// strips two elements and the depth limit is reached. It replays the moves
// selectNth makes in that case — the middle element swapped into l+1, nothing
// else — over a table of original positions, and hands the two smallest unused
// values to the positions that will sit at l and l+1.
func medianOfThreeKiller(n int) []float64 {
	at := make([]int, n) // at[i]: original position of the element now at i
	for i := range at {
		at[i] = i
	}
	a := make([]float64, n)
	next := 1.0
	l, r := 0, n-1
	for ; r-l >= 12; l += 2 {
		mid := (l + r) / 2
		at[mid], at[l+1] = at[l+1], at[mid]
		a[at[l]], a[at[l+1]] = next, next+1
		next += 2
	}
	for ; l <= r; l++ {
		a[at[l]] = next
		next++
	}
	return a
}

func organPipe(a []float64) {
	for i := range a {
		a[i] = float64(min(i, len(a)-1-i))
	}
}

// The input shapes of the oracle. None produces -0: sort.Float64s leaves the
// order of -0 and +0 to its algorithm, so which of the two a rank holds was
// never defined.
var oracleShapes = []struct {
	name string
	fill func(rng *rand.Rand, a []float64)
}{
	{"uniform", func(rng *rand.Rand, a []float64) {
		for i := range a {
			a[i] = rng.Float64() * 1e3
		}
	}},
	{"heavy_duplicates", func(rng *rand.Rand, a []float64) {
		for i := range a {
			a[i] = float64(rng.Intn(7))
		}
	}},
	{"all_equal", func(rng *rand.Rand, a []float64) {
		for i := range a {
			a[i] = 42.5
		}
	}},
	{"sorted", func(rng *rand.Rand, a []float64) {
		for i := range a {
			a[i] = float64(i) * 0.5
		}
	}},
	{"reverse_sorted", func(rng *rand.Rand, a []float64) {
		for i := range a {
			a[i] = float64(len(a)-i) * 0.5
		}
	}},
	{"organ_pipe", func(rng *rand.Rand, a []float64) { organPipe(a) }},
	{"median_of_three_killer", func(rng *rand.Rand, a []float64) {
		copy(a, medianOfThreeKiller(len(a)))
	}},
	{"infinities", func(rng *rand.Rand, a []float64) {
		for i := range a {
			switch rng.Intn(5) {
			case 0:
				a[i] = math.Inf(1)
			case 1:
				a[i] = math.Inf(-1)
			default:
				a[i] = rng.NormFloat64()
			}
		}
	}},
	{"some_nan", func(rng *rand.Rand, a []float64) {
		for i := range a {
			if a[i] = rng.NormFloat64(); rng.Intn(4) == 0 {
				a[i] = math.NaN()
			}
		}
	}},
	{"mostly_nan", func(rng *rand.Rand, a []float64) {
		for i := range a {
			if a[i] = math.NaN(); rng.Intn(10) == 0 {
				a[i] = float64(rng.Intn(3))
			}
		}
	}},
	{"all_nan", func(rng *rand.Rand, a []float64) {
		for i := range a {
			a[i] = math.NaN()
		}
	}},
}

// metroQuantiles are the percentiles asked of one Summary in a row: the
// metro render's seven, plus both ends.
var metroQuantiles = []float64{0, 5, 25, 50, 75, 90, 95, 99, 100}

// summaryPair drives a Summary and its sort-based reference with the same
// operations and compares every query's bits.
type summaryPair struct {
	t       *testing.T
	name    string
	got     *Summary
	want    *refSummary
	queries int
}

func (sp *summaryPair) add(vs []float64) {
	for _, v := range vs {
		sp.got.Add(v)
		sp.want.Add(v)
	}
}

func (sp *summaryPair) merge(vs []float64) {
	og, ow := NewSummary(0), &refSummary{}
	for _, v := range vs {
		og.Add(v)
		ow.Add(v)
	}
	sp.got.Merge(og)
	sp.want.Merge(ow)
}

func (sp *summaryPair) check(what string, got, want float64) {
	sp.t.Helper()
	sp.queries++
	if math.Float64bits(got) != math.Float64bits(want) {
		sp.t.Fatalf("%s n=%d: %s = %v (%#x), sort reference %v (%#x)",
			sp.name, sp.got.N(), what, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

func (sp *summaryPair) percentile(p float64) {
	sp.t.Helper()
	sp.check("Percentile", sp.got.Percentile(p), sp.want.Percentile(p))
}

func (sp *summaryPair) minMax() {
	sp.t.Helper()
	sp.check("Min", sp.got.Min(), sp.want.Min())
	sp.check("Max", sp.got.Max(), sp.want.Max())
}

// TestSummaryMatchesSortReference drives selection-based and sort-based
// summaries through more than 10⁵ identical seeded queries — every shape at
// sizes 1 to 10⁵, Add and Merge interleaved between queries, the metro's
// quantiles repeated on one Summary — and requires bit-identical answers.
// Each NaN-bearing shape runs twice more on a NaN-free start whose first NaN
// arrives after queries have run, once by Add and once by Merge, and is saved
// and loaded before its last round, so that a query that skips moving the
// NaNs first on a Summary that holds some gives a wrong answer here. So that the pass
// cannot be vacuous it also requires that a query left some large Summary
// unsorted: selection ran, not a sort.
func TestSummaryMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	queries, leftUnsorted := 0, 0
	run := func(n, rounds, perRound int) {
		for _, shape := range oracleShapes {
			// arrive -1 runs the shape as it is; 0 and 1 are the round whose
			// Add, or Merge, brings a NaN-free start its first NaN.
			for arrive := -1; arrive < 2; arrive++ {
				if arrive >= 0 && !strings.Contains(shape.name, "nan") {
					continue
				}
				runShape(t, rng, shape.name, shape.fill, arrive, n, rounds, perRound, &queries, &leftUnsorted)
			}
		}
	}
	for n := 1; n <= 64; n++ {
		run(n, 4, 16)
	}
	for _, n := range []int{65, 100, 255, 256, 257, 1000, 4096, 5000} {
		run(n, 6, 40)
	}
	run(20000, 3, 20)
	run(100000, 2, 5)
	if queries < 100000 {
		t.Fatalf("only %d queries compared, want at least 100000", queries)
	}
	if leftUnsorted == 0 {
		t.Fatal("every large Summary was fully sorted after its queries: selection did not run")
	}
	t.Logf("%d queries bit-identical; %d rounds left a large Summary unsorted", queries, leftUnsorted)
}

// runShape is one TestSummaryMatchesSortReference case: n samples of the
// shape, then rounds of queries, each round growing the pair by about a tenth
// in the shape's own values. With arrive >= 0 the samples are NaN-free until
// round arrive, whose first added value is a NaN, and the Summary is reloaded
// from a snapshot before its last round.
func runShape(t *testing.T, rng *rand.Rand, name string, fill func(*rand.Rand, []float64), arrive, n, rounds, perRound int, queries, leftUnsorted *int) {
	late := arrive >= 0
	a := make([]float64, n)
	if late {
		name += fmt.Sprintf("/first-nan-in-round-%d", arrive)
		oracleShapes[0].fill(rng, a)
	} else {
		fill(rng, a)
	}
	sp := &summaryPair{t: t, name: name, got: NewSummary(0), want: &refSummary{}}
	sp.add(a)
	for round := 0; round < rounds; round++ {
		if late && round == rounds-1 {
			sp.got = loadSummary(t, saveSummary(t, sp.got))
		}
		for _, p := range metroQuantiles {
			sp.percentile(p)
		}
		for q := 0; q < perRound; q++ {
			sp.percentile(rng.Float64() * 100)
		}
		sp.minMax()
		if n >= 1000 && !sort.Float64sAreSorted(sp.got.samples) {
			*leftUnsorted++
		}
		// Grow by about a tenth, in the shape's own values, by Add and by
		// Merge in turn.
		extra := make([]float64, 1+n/10)
		switch {
		case round < arrive:
			oracleShapes[0].fill(rng, extra)
		case round == arrive:
			fill(rng, extra)
			extra[0] = math.NaN()
		default:
			fill(rng, extra)
		}
		if round%2 == 0 {
			sp.add(extra)
		} else {
			sp.merge(extra)
		}
	}
	sp.check("sum", sp.got.sum, sp.want.sum)
	sp.check("sumSq", sp.got.sumSq, sp.want.sumSq)
	*queries += sp.queries
}

// TestSelectNthDepthLimit is the guard on introselect's fallback: the killer
// input reaches it, at every size where it can, and no random input does.
func TestSelectNthDepthLimit(t *testing.T) {
	for _, n := range []int{64, 1000, 100000} {
		a := medianOfThreeKiller(n)
		k := n * 95 / 100
		if !oneSegment(a).selectNth(0, k) {
			t.Errorf("killer n=%d: the depth limit was not reached", n)
		}
		if a[k] != float64(k+1) {
			t.Errorf("killer n=%d: rank %d = %v, want %d", n, k, a[k], k+1)
		}
	}
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 20000; trial++ {
		n := 1 + rng.Intn(2000)
		if trial%1000 == 0 {
			n = 100000
		}
		a := make([]float64, n)
		dup := trial%3 == 0
		for i := range a {
			if a[i] = rng.Float64(); dup {
				a[i] = float64(rng.Intn(1 + n/8))
			}
		}
		if oneSegment(a).selectNth(0, rng.Intn(n)) {
			t.Fatalf("trial %d: random input of %d samples fell back to the sort", trial, n)
		}
	}
}

// oneSegment returns a Summary whose one segment is a, so that selection
// permutes a itself. Its sum is a's, so a query moves any NaN in a first.
func oneSegment(a []float64) *Summary { return &Summary{samples: a, sum: sumOf(a)} }

// sumOf returns the sum of a, NaN if a holds a NaN.
func sumOf(a []float64) float64 {
	sum := 0.0
	for _, v := range a {
		sum += v
	}
	return sum
}

// checkSelectNth runs selectNth on a copy of a and requires the postcondition
// Percentile relies on: rank k holds what a sort puts there, nothing larger
// lies to its left and nothing smaller to its right.
func checkSelectNth(t *testing.T, a []float64, k int) {
	t.Helper()
	got := append([]float64(nil), a...)
	want := append([]float64(nil), a...)
	sort.Float64s(want)
	oneSegment(got).selectNth(0, k)
	if got[k] != want[k] {
		t.Fatalf("rank %d of %d = %v, sorted has %v", k, len(a), got[k], want[k])
	}
	for i, v := range got {
		if (i < k && v > got[k]) || (i > k && v < got[k]) {
			t.Fatalf("rank %d of %d: element %d = %v is on the wrong side of %v", k, len(a), i, v, got[k])
		}
	}
	sort.Float64s(got)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("rank %d of %d: selection changed the multiset at sorted index %d", k, len(a), i)
		}
	}
}

// TestSelectNthEveryRank checks the postcondition at every rank of every
// shape at the sizes around the insertion-sort cutoff, where each way out of
// the partition loop — the rank left of, on, and right of the pivot, and
// inside a run equal to it — is some (size, rank) pair.
func TestSelectNthEveryRank(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for n := 1; n <= 80; n++ {
		for _, shape := range oracleShapes {
			a := make([]float64, n)
			shape.fill(rng, a)
			if a = a[oneSegment(a).nansFirst():]; len(a) == 0 {
				continue
			}
			for k := range a {
				checkSelectNth(t, a, k)
			}
		}
	}
}

// fuzzSamples decodes a fuzz input into samples. Mode 0 reads one small
// integer per byte, which makes duplicates and long runs cheap to reach; any
// other mode reads raw float64 bit patterns, with every NaN made the one
// math.NaN() and -0 made +0 (see oracleShapes).
func fuzzSamples(mode uint8, data []byte) []float64 {
	if mode == 0 {
		a := make([]float64, len(data))
		for i, b := range data {
			a[i] = float64(b)
		}
		return a
	}
	a := make([]float64, 0, len(data)/8)
	for ; len(data) >= 8; data = data[8:] {
		v := math.Float64frombits(binary.LittleEndian.Uint64(data))
		switch {
		case v != v:
			v = math.NaN()
		case v == 0:
			v = 0
		}
		a = append(a, v)
	}
	return a
}

// splitAt returns a Summary holding a copy of a in up to four segments, cut
// where the three bytes of cuts scale into a. Cuts at either end or at the
// same place are dropped, so that every segment holds a sample, as Add's do.
func splitAt(a []float64, cuts uint32) *Summary {
	var at []int
	for b := 0; b < 3; b++ {
		at = append(at, int(cuts>>(8*b)&0xff)*len(a)/0x100)
	}
	sort.Ints(at)
	s := &Summary{full: &segments{}}
	for _, c := range at {
		if c > s.full.n {
			s.full.segs = append(s.full.segs, append([]float64(nil), a[s.full.n:c]...))
			s.full.n = c
		}
	}
	s.samples = append([]float64(nil), a[s.full.n:]...)
	s.sum = sumOf(a)
	if s.full.n == 0 {
		s.full = nil
	}
	return s
}

// samplesOf returns s's samples in logical order.
func samplesOf(s *Summary) []float64 {
	var all []float64
	s.eachSegment(func(seg []float64) { all = append(all, seg...) })
	return all
}

// FuzzSelectNth checks selectNth's postcondition on the NaN-free samples and
// Percentile, Min and Max against the sort reference on all of them. It also
// cuts the samples into segments and requires that selection across them,
// and the queries, give the bits and leave the order that the one-segment
// Summary does, so that scans and swaps across a segment boundary are fuzzed.
func FuzzSelectNth(f *testing.F) {
	// The other shapes are in testdata/fuzz/FuzzSelectNth. The killer is built
	// here so that it follows selectNth's pivot rule if that ever changes.
	killer := medianOfThreeKiller(200)
	seed := make([]byte, len(killer))
	for i, v := range killer {
		seed[i] = byte(v)
	}
	f.Add(uint8(0), seed, uint16(190), uint32(0x00c04010))
	f.Fuzz(func(t *testing.T, mode uint8, data []byte, k uint16, cuts uint32) {
		a := fuzzSamples(mode, data)
		if len(a) == 0 {
			return
		}
		numbers := append([]float64(nil), a...)
		numbers = numbers[oneSegment(numbers).nansFirst():]
		if len(numbers) > 0 {
			checkSelectNth(t, numbers, int(k)%len(numbers))
		}
		sp := &summaryPair{t: t, name: "fuzz", got: NewSummary(0), want: &refSummary{}}
		sp.add(a)
		sp.percentile(float64(k) / math.MaxUint16 * 100)
		sp.percentile(float64(int(k)%len(a)) / float64(len(a)) * 100)
		sp.minMax()
		sp.percentile(95)

		whole, split := oneSegment(append([]float64(nil), a...)), splitAt(a, cuts)
		same := func(what string) {
			t.Helper()
			w, s := samplesOf(whole), samplesOf(split)
			for i := range w {
				if math.Float64bits(w[i]) != math.Float64bits(s[i]) {
					t.Fatalf("%s: position %d of %d holds %v in one segment, %v in segments cut at %#x", what, i, len(w), w[i], s[i], cuts)
				}
			}
		}
		nans := whole.nansFirst()
		if got := split.nansFirst(); got != nans {
			t.Fatalf("nansFirst = %d in segments, %d in one", got, nans)
		}
		same("nansFirst")
		if nans < len(a) {
			r := nans + int(k)%(len(a)-nans)
			if w, s := whole.selectNth(nans, r), split.selectNth(nans, r); w != s {
				t.Fatalf("selectNth fell back %v in one segment, %v in segments", w, s)
			}
			same("selectNth")
		}
		for _, p := range []float64{float64(k) / math.MaxUint16 * 100, 95, 50} {
			if w, s := whole.Percentile(p), split.Percentile(p); math.Float64bits(w) != math.Float64bits(s) {
				t.Fatalf("Percentile(%v) = %v in segments, %v in one", p, s, w)
			}
			same("Percentile")
		}
	})
}

// saveSummary snapshots s the way a trial does.
func saveSummary(t *testing.T, s *Summary) []byte {
	t.Helper()
	e := snap.NewEncoder()
	s.Walk(snap.Save(e))
	blob, err := e.Encode(snap.Version)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func loadSummary(t *testing.T, blob []byte) *Summary {
	t.Helper()
	d, err := snap.Decode(blob, snap.Version)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSummary(0)
	s.Walk(snap.Load(d))
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSummaryWalkRoundTrip: save → load → save is byte-identical, the wire
// layout is the samples and the two running moments, nothing more, and the
// order a query has permuted the samples into travels with the snapshot. A
// load refuses a NaN sample beside a sum that is a number.
func TestSummaryWalkRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	orig := NewSummary(0)
	for i := 0; i < 500; i++ {
		orig.Add(rng.Float64())
	}
	fresh := saveSummary(t, orig)
	p95 := orig.Percentile(95)
	blob := saveSummary(t, orig)
	if bytes.Equal(blob, fresh) {
		t.Fatal("a Percentile query left the snapshot bytes unchanged: sample order is no longer observable")
	}

	// The wire layout: tag, samples in their current order, sum, sum of squares.
	e := snap.NewEncoder()
	w := snap.Save(e)
	w.Tag("summary")
	w.F64s(&orig.samples)
	w.F64(&orig.sum)
	w.F64(&orig.sumSq)
	want, err := e.Encode(snap.Version)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, want) {
		t.Fatalf("Walk wrote %d bytes, the layout is %d", len(blob), len(want))
	}

	got := loadSummary(t, blob)
	if again := saveSummary(t, got); !bytes.Equal(again, blob) {
		t.Fatal("second save differs from the first")
	}
	if v := got.Percentile(95); v != p95 || got.N() != orig.N() || got.Mean() != orig.Mean() {
		t.Fatalf("loaded summary reads p95=%v n=%d mean=%v, saved one %v %d %v", v, got.N(), got.Mean(), p95, orig.N(), orig.Mean())
	}

	// A NaN sample loads beside a NaN sum, as every run leaves it, and fails
	// beside a sum that is a number.
	for _, sum := range []float64{math.NaN(), 3} {
		e := snap.NewEncoder()
		w := snap.Save(e)
		w.Tag("summary")
		samples := []float64{1, math.NaN(), 2}
		w.F64s(&samples)
		w.F64(&sum)
		w.F64(&sum)
		blob, err := e.Encode(snap.Version)
		if err != nil {
			t.Fatal(err)
		}
		d, err := snap.Decode(blob, snap.Version)
		if err != nil {
			t.Fatal(err)
		}
		w = snap.Load(d)
		NewSummary(0).Walk(w)
		if failed := w.Err() != nil; failed != (sum == sum) {
			t.Errorf("a NaN sample beside the sum %v: load error %v", sum, w.Err())
		}
	}
}
