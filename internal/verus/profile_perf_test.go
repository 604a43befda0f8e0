package verus

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/spline"
)

// refProfile is the pre-PR2 delay profile, verbatim: a map[int] knot store
// with a collect-sort-delete aging pass and a fresh sort + spline.Fit per
// refit. It pins the sorted-slice store bit-for-bit: same surviving knots,
// same EWMA values, same fitted curve, same lookup results.
type refProfilePoint struct {
	delay float64
	stamp int64
}

type refProfile struct {
	alpha      float64
	points     map[int]refProfilePoint
	maxW       int
	spl        *spline.Spline
	dirty      bool
	staleAfter int64
}

func newRefProfile(alpha float64) *refProfile {
	return &refProfile{alpha: alpha, points: make(map[int]refProfilePoint)}
}

func (p *refProfile) update(w int, delay float64, now int64) {
	if w < 1 || delay <= 0 {
		return
	}
	if old, ok := p.points[w]; ok {
		p.points[w] = refProfilePoint{delay: p.alpha*old.delay + (1-p.alpha)*delay, stamp: now}
	} else {
		p.points[w] = refProfilePoint{delay: delay, stamp: now}
	}
	if w > p.maxW {
		p.maxW = w
	}
	p.dirty = true
}

func (p *refProfile) refit(now int64) {
	if p.staleAfter > 0 && len(p.points) > 2 {
		var stale []int
		for w, pt := range p.points {
			if now-pt.stamp > p.staleAfter {
				stale = append(stale, w)
			}
		}
		sort.Ints(stale)
		for _, w := range stale {
			if len(p.points) <= 2 {
				break
			}
			delete(p.points, w)
			p.dirty = true
		}
		p.maxW = 0
		for w := range p.points {
			if w > p.maxW {
				p.maxW = w
			}
		}
	}
	if !p.dirty || len(p.points) < 2 {
		return
	}
	xs := make([]float64, 0, len(p.points))
	for w := range p.points {
		xs = append(xs, float64(w))
	}
	sort.Float64s(xs)
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = p.points[int(x)].delay
	}
	if s, err := spline.Fit(xs, ys); err == nil {
		p.spl = s
	}
	p.dirty = false
}

// forwardScan is the lookup the top-down scan replaced, verbatim but for
// taking the curve and maxW as arguments and walking the grid with the
// cursor, which TestEvaluatorMatchesEval holds to Eval bit for bit: evaluate
// the grid upward, keep the last window whose delay meets the target, and
// with none the smallest window of least delay inside the observed range. A
// nil spl is an unfitted profile.
func forwardScan(spl *spline.Spline, maxW int, target, hi float64) (w float64, found bool) {
	if spl == nil {
		return 1, false
	}
	if hi < 1 {
		hi = 1
	}
	steps := int(hi) * 2
	if steps < 64 {
		steps = 64
	}
	if steps > 4096 {
		steps = 4096
	}
	best := 1.0
	argmin := 1.0
	minDelay := math.Inf(1)
	argminCeil := float64(maxW)
	if argminCeil < 1 {
		argminCeil = 1
	}
	dAtMaxW := spl.Eval(argminCeil)
	step := (hi - 1) / float64(steps-1)
	ev := spl.Evaluator()
	for k := 0; k < steps; k++ {
		x := 1 + float64(k)*step
		ev.Seek(x)
		d := ev.At(x)
		if x > argminCeil && d < dAtMaxW {
			d = dAtMaxW
		}
		if d <= target {
			best = x
			found = true
		}
		if x <= argminCeil && d < minDelay {
			minDelay = d
			argmin = x
		}
	}
	if !found {
		return argmin, false
	}
	return best, true
}

// TestProfileMatchesReference drives the sorted-slice profile and the
// map-based reference through identical randomized update/refit/lookup
// sequences (with staleness aging enabled) and requires bit-identical knot
// stores, curves, and lookup results throughout.
func TestProfileMatchesReference(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		p := &delayProfile{}
		p.staleAfter = 40
		ref := newRefProfile(0.875)
		ref.staleAfter = 40
		var now int64
		for step := 0; step < 3000; step++ {
			now++
			w := 1 + rng.Intn(120)
			d := 0.01 + rng.Float64()*0.2
			p.update(w, d, now)
			ref.update(w, d, now)
			if step%50 == 0 {
				p.refit(now)
				ref.refit(now)
				wins, delays := p.snapshotPoints()
				if len(wins) != len(ref.points) {
					t.Fatalf("trial %d step %d: %d knots, reference has %d", trial, step, len(wins), len(ref.points))
				}
				for i, w := range wins {
					rp, ok := ref.points[w]
					if !ok {
						t.Fatalf("trial %d step %d: knot %d missing from reference", trial, step, w)
					}
					if delays[i] != rp.delay {
						t.Fatalf("trial %d step %d: knot %d delay %v, reference %v", trial, step, w, delays[i], rp.delay)
					}
				}
				if p.maxW != ref.maxW {
					t.Fatalf("trial %d step %d: maxW %d, reference %d", trial, step, p.maxW, ref.maxW)
				}
				target := 0.01 + rng.Float64()*0.25
				hi := 1 + rng.Float64()*300
				gw, gf := p.lookup(target, hi)
				ww, wf := forwardScan(ref.spl, ref.maxW, target, hi)
				if gw != ww || gf != wf {
					t.Fatalf("trial %d step %d: lookup(%v,%v) = (%v,%v), reference (%v,%v)",
						trial, step, target, hi, gw, gf, ww, wf)
				}
				if p.ready() && ref.spl != nil {
					for q := 0; q < 20; q++ {
						x := 1 + rng.Float64()*200
						if got, want := p.delayAt(x), ref.spl.Eval(x); got != want {
							t.Fatalf("trial %d step %d: delayAt(%v) = %v, reference %v", trial, step, x, got, want)
						}
					}
				}
			}
		}
	}
}

// TestProfileUpdateZeroAllocs asserts the per-ack hot path — folding a
// sample into an existing knot — never allocates.
func TestProfileUpdateZeroAllocs(t *testing.T) {
	p := benchProfile(128)
	now := int64(1)
	allocs := testing.AllocsPerRun(1000, func() {
		now++
		p.update(1+int(now)%128, 0.03, now)
	})
	if allocs != 0 {
		t.Errorf("update of existing knot: %v allocs/run, want 0", allocs)
	}
}

// TestProfileFirstKnotsAllocs asserts a fresh profile's first eight
// distinct windows allocate nothing, inserted in any order: the knots start
// on the profile's own storage (three slices growing from empty allocated
// twelve times over the same eight). The ninth knot moves them to the heap.
func TestProfileFirstKnotsAllocs(t *testing.T) {
	const runs = 10
	order := [...]int{5, 1, 8, 3, 7, 2, 6, 4}
	ps := make([]delayProfile, runs+1)
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		p := &ps[next]
		next++
		for i, w := range order {
			p.update(w, 0.01*float64(w), int64(i))
		}
	})
	if allocs != 0 {
		t.Errorf("a fresh profile's first %d windows: %v allocs, want 0", len(order), allocs)
	}
	for i := range ps {
		if wins, _ := ps[i].snapshotPoints(); len(wins) != len(order) || wins[0] != 1 || wins[len(wins)-1] != 8 {
			t.Fatalf("profile %d holds windows %v, want 1..8", i, wins)
		}
	}
	p := &ps[0]
	p.update(9, 0.09, 9)
	if &p.knots[0] == &p.first[0] || p.numPoints() != 9 {
		t.Errorf("a ninth knot left %d knots on the inline storage", p.numPoints())
	}
}

// TestProfileFirstRefitsAllocs asserts a fresh profile's refits allocate
// nothing while it holds at most eight knots, refitted after every new one:
// the spline carves its rows from the profile's own firstRows (a backing of
// its own allocated three times over the same refits, at 2, 3 and 5 knots).
// The refit after the ninth knot moves the backing to the heap.
func TestProfileFirstRefitsAllocs(t *testing.T) {
	const runs = 10
	order := [...]int{5, 1, 8, 3, 7, 2, 6, 4}
	ps := make([]delayProfile, runs+1)
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		p := &ps[next]
		next++
		for i, w := range order {
			p.update(w, 0.01*float64(w), int64(i))
			p.refit(int64(i))
		}
	})
	if allocs != 0 {
		t.Errorf("refits of a fresh profile up to %d knots: %v allocs, want 0", len(order), allocs)
	}
	p := &ps[0]
	if xs, _ := p.spl.Knots(); !p.ready() || len(xs) != len(order) || &xs[0] != &p.firstRows[0] {
		t.Fatalf("the fit of %d knots is not on the profile's own rows", len(order))
	}
	p.update(9, 0.09, 9)
	p.refit(9)
	if xs, _ := p.spl.Knots(); len(xs) != 9 || &xs[0] == &p.firstRows[0] {
		t.Errorf("a fit of 9 knots left its rows on the profile's own storage")
	}
}

// TestProfileRefitZeroAllocs asserts a warm refit — knot and spline
// buffers at their high-water mark — never allocates, including the
// stale-aging compaction pass.
func TestProfileRefitZeroAllocs(t *testing.T) {
	p := benchProfile(128)
	p.staleAfter = 1 << 40 // aging pass runs, nothing is stale
	p.refit(2)
	now := int64(2)
	allocs := testing.AllocsPerRun(100, func() {
		now++
		p.update(1+int(now)%128, 0.03, now)
		p.refit(now)
	})
	if allocs != 0 {
		t.Errorf("warm refit: %v allocs/run, want 0", allocs)
	}
}

// TestProfileLookupZeroAllocs asserts the per-epoch lookup never allocates,
// on a scan that walks most of the 4096-point grid (the Evaluator cursor
// lives on the stack).
func TestProfileLookupZeroAllocs(t *testing.T) {
	p := benchProfile(128)
	target := p.delayAt(64)
	allocs := testing.AllocsPerRun(100, func() {
		p.lookup(target, 2048)
	})
	if allocs != 0 {
		t.Errorf("lookup: %v allocs/run, want 0", allocs)
	}
}

// TestProfileStaleAgingFloor pins the aging floor across the compaction
// rewrite: aging never drops the store below two knots even when everything
// is stale, and the two lowest-window knots are the survivors (deletion
// scans ascending).
func TestProfileStaleAgingFloor(t *testing.T) {
	p := &delayProfile{}
	p.staleAfter = 5
	for w := 1; w <= 10; w++ {
		p.update(w, float64(w)*0.01, 1)
	}
	p.refit(100) // everything is stale
	wins, _ := p.snapshotPoints()
	if len(wins) != 2 {
		t.Fatalf("aging floor: %d knots survive, want 2", len(wins))
	}
	// Ascending deletion order keeps the two highest windows.
	if wins[0] != 9 || wins[1] != 10 {
		t.Errorf("survivors = %v, want [9 10]", wins)
	}
	if p.maxW != 10 {
		t.Errorf("maxW = %d, want 10", p.maxW)
	}
}

// oracleProfile builds one seeded profile for the lookup oracle: a random
// subset of the windows 1..span as knots, under one of six delay shapes.
func oracleProfile(rng *rand.Rand, shape, span int) *delayProfile {
	p := &delayProfile{}
	knots := 2 + rng.Intn(min(span-1, 300))
	level := 0.01 + rng.Float64()*0.1
	for _, i := range rng.Perm(span)[:knots] {
		w := float64(i + 1)
		var d float64
		switch shape {
		case 0: // the convex curve a queue draws, with measurement noise
			d = level + 0.0004*math.Pow(w, 1.3) + rng.Float64()*0.002
		case 1: // pure noise: the spline overshoots, dips and crosses itself
			d = 0.01 + rng.Float64()*0.3
		case 2: // flat: every grid point ties for the minimum
			d = level
		case 3: // two plateaus: ties inside each
			if d = level; i >= span/2 {
				d = 2 * level
			}
		case 4: // rises, then falls towards the top: a negative tail slope
			d = level + 0.001*w*(1.2*float64(span)-w)/float64(span)
		case 5: // steps down with the window: the minimum sits at the top
			d = level + 0.2/(1+w)
		}
		p.update(i+1, d, 1)
	}
	p.refit(1)
	if rng.Intn(4) == 0 {
		// An ack for a window above every knot, not yet refitted: maxW moves
		// past the curve's last knot.
		p.update(p.maxW+1+rng.Intn(span), level, 2)
	}
	return p
}

// TestLookupMatchesForwardScan drives the top-down lookup and forwardScan over more than 10⁵ seeded (profile, target, hi) triples and
// requires the same (w, found) bits. It counts the corners it is meant to
// cover, so that a generator change cannot drop one silently, and it guards
// the point of the change: on at least nine found lookups in ten the scan
// must have stopped before evaluating the whole grid.
func TestLookupMatchesForwardScan(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var triples, found, foundEarly, missTies, topHits, tailClamped, hiBelowOne, atFloor, atCeiling int
	for trial := 0; trial < 300; trial++ {
		shape := trial % 6
		span := []int{2, 5, 16, 40, 150, 600, 3000}[trial%7]
		p := oracleProfile(rng, shape, span)
		if !p.ready() {
			t.Fatalf("trial %d: the profile has no curve", trial)
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, k := range p.knots {
			lo, hi = math.Min(lo, k.d), math.Max(hi, k.d)
		}
		maxW := float64(p.maxW)
		fallingTail := p.spl.Eval(maxW+10) < p.spl.Eval(maxW)
		for q := 0; q < 350; q++ {
			var target float64
			switch rng.Intn(8) {
			case 0:
				target = lo / 2 // below the whole curve, unless the spline dips
			case 1:
				target = -1 // below the whole curve
			case 2:
				target = 10 // above it: the hit is the top grid point
			case 3:
				target = p.knots[rng.Intn(len(p.knots))].d // equality at a knot
			case 4:
				target = p.spl.Eval(maxW) // equality with the tail clamp
			default:
				target = p.delayAt(1 + rng.Float64()*maxW*1.5)
			}
			var top float64
			switch rng.Intn(8) {
			case 0:
				top = rng.Float64()*4 - 3 // below 1, mostly
			case 1:
				top = 1 + rng.Float64()*31 // the 64-step floor
			case 2:
				top = 2048 + rng.Float64()*4000 // the 4096-step ceiling
			case 3:
				top = maxW
			case 4:
				top = maxW * (1 + rng.Float64()*2) // past the observed range
			default:
				top = 1 + rng.Float64()*maxW*1.2
			}
			gw, gf, evals := p.scan(target, top)
			ww, wf := forwardScan(&p.spl, p.maxW, target, top)
			if math.Float64bits(gw) != math.Float64bits(ww) || gf != wf {
				t.Fatalf("trial %d (shape %d, %d knots, maxW %d): lookup(%v, %v) = (%v, %v), forward scan (%v, %v)",
					trial, shape, p.numPoints(), p.maxW, target, top, gw, gf, ww, wf)
			}
			if lw, lf := p.lookup(target, top); lw != gw || lf != gf {
				t.Fatalf("trial %d: lookup and scan disagree", trial)
			}
			triples++
			steps := min(max(2*int(math.Max(top, 1)), 64), 4096)
			switch {
			case !gf:
				if evals != steps {
					t.Fatalf("trial %d: a miss evaluated %d of %d grid points", trial, evals, steps)
				}
				if shape == 2 || shape == 3 {
					missTies++
				}
			case evals < steps:
				found++
				foundEarly++
			default:
				found++
			}
			if gf && evals == 1 {
				topHits++
			}
			if fallingTail && top > maxW {
				tailClamped++
			}
			if top < 1 {
				hiBelowOne++
			}
			if steps == 64 {
				atFloor++
			}
			if steps == 4096 {
				atCeiling++
			}
		}
	}
	if triples < 100000 {
		t.Fatalf("only %d triples compared, want at least 100000", triples)
	}
	for name, n := range map[string]int{
		"misses with tied minima": missTies, "hits at the top grid point": topHits,
		"hi past maxW over a falling tail": tailClamped, "hi < 1": hiBelowOne,
		"64-step grids": atFloor, "4096-step grids": atCeiling,
	} {
		if n < 1000 {
			t.Errorf("only %d triples covered %s, want at least 1000", n, name)
		}
	}
	if foundEarly*10 < found*9 {
		t.Errorf("the scan stopped early on %d of %d found lookups, want at least 90%%: the top-down path is not what ran", foundEarly, found)
	}
	t.Logf("%d triples bit-identical; %d found, %d of them before the grid's end; %d misses", triples, found, foundEarly, triples-found)
}
