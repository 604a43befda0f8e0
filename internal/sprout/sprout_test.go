package sprout

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/netsim"
	"repro/internal/snap"
)

func TestConfigValidation(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.Tick = 0 },
		func(c *Config) { c.HorizonTicks = 0 },
		func(c *Config) { c.Percentile = 0 },
		func(c *Config) { c.Percentile = 100 },
		func(c *Config) { c.MaxRateMbps = 0 },
		func(c *Config) { c.PacketBytes = 0 },
		func(c *Config) { c.Bins = 4 },
		func(c *Config) { c.SigmaMbpsPerSqrtSec = 0 },
		func(c *Config) { c.EscapeProb = 1 },
		// Shared tables over the size limit: (HorizonTicks−1)·Bins² floats.
		func(c *Config) { c.Bins = 2048 },
		func(c *Config) { c.HorizonTicks = 1000 },
	}
	for i, mut := range mutations {
		c := DefaultConfig()
		mut(&c)
		if c.Validate() == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	c := DefaultConfig()
	c.Bins = 2048
	if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "130 MB") {
		t.Errorf("2048 bins: error %v; want the tables' size, 130 MB", err)
	}
}

func TestBeliefNormalized(t *testing.T) {
	s := New(DefaultConfig())
	for tick := 0; tick < 100; tick++ {
		for i := 0; i < tick%7; i++ {
			s.OnAck(0, cc.AckSample{})
		}
		s.Tick(0)
		var total float64
		for _, p := range s.belief {
			total += p
		}
		if math.Abs(total-1) > 1e-9 {
			t.Fatalf("belief sums to %v at tick %d", total, tick)
		}
	}
}

// saturatedAcks feeds n acks whose RTTs indicate queueing (so the Poisson
// update is exact, not censored).
func saturatedAcks(s *Sprout, n int) {
	for i := 0; i < n; i++ {
		s.OnAck(0, cc.AckSample{RTT: 60 * time.Millisecond})
	}
}

func TestBeliefTracksArrivalRate(t *testing.T) {
	s := New(DefaultConfig())
	s.OnAck(0, cc.AckSample{RTT: 20 * time.Millisecond}) // establishes rttMin
	s.Tick(0)
	// 10 packets per 20 ms tick of 1400 B = 5.6 Mbps, with queueing RTTs.
	for tick := 0; tick < 200; tick++ {
		saturatedAcks(s, 10)
		s.Tick(0)
	}
	got := beliefMeanMbps(s)
	if math.Abs(got-5.6) > 2 {
		t.Fatalf("belief mean = %.2f Mbps, want ≈5.6", got)
	}
}

// beliefMeanMbps returns the mean of s's rate belief in Mbps.
func beliefMeanMbps(s *Sprout) float64 {
	var mean float64
	for i, p := range s.belief {
		mean += s.lambda(i) * p
	}
	return mean * float64(s.cfg.PacketBytes) * 8 / s.cfg.Tick.Seconds() / 1e6
}

func TestForecastCautious(t *testing.T) {
	s := New(DefaultConfig())
	s.OnAck(0, cc.AckSample{RTT: 20 * time.Millisecond})
	s.Tick(0)
	for tick := 0; tick < 200; tick++ {
		saturatedAcks(s, 10)
		s.Tick(0)
	}
	// 5-tick horizon at ~10 pkt/tick would be 50 if we used the mean; the
	// 5th-percentile forecast must be meaningfully below that.
	if s.window >= 50 {
		t.Fatalf("window = %d; forecast not cautious", s.window)
	}
	if s.window < 5 {
		t.Fatalf("window = %d; forecast collapsed", s.window)
	}
}

func TestWindowNeverBelowOne(t *testing.T) {
	s := New(DefaultConfig())
	for tick := 0; tick < 100; tick++ {
		s.Tick(0) // zero arrivals throughout
	}
	if s.window < 1 {
		t.Fatalf("window = %d; must keep probing", s.window)
	}
}

func TestTimeoutResetsBelief(t *testing.T) {
	s := New(DefaultConfig())
	s.OnAck(0, cc.AckSample{RTT: 20 * time.Millisecond})
	s.Tick(0)
	for tick := 0; tick < 100; tick++ {
		saturatedAcks(s, 20)
		s.Tick(0)
	}
	before := beliefMeanMbps(s)
	s.OnTimeout(0)
	after := beliefMeanMbps(s)
	if after >= before {
		t.Fatalf("belief mean %v -> %v; reset should spread it to uniform", before, after)
	}
	if s.window != 1 {
		t.Fatalf("window after timeout = %d, want 1", s.window)
	}
}

func TestRateCapped(t *testing.T) {
	cfg := DefaultConfig()
	s := New(cfg)
	// Hammer with 100 packets per tick (56 Mbps — far above the cap).
	s.OnAck(0, cc.AckSample{RTT: 20 * time.Millisecond})
	s.Tick(0)
	for tick := 0; tick < 300; tick++ {
		saturatedAcks(s, 100)
		s.Tick(0)
	}
	capPktPerTick := cfg.MaxRateMbps * 1e6 / 8 / float64(cfg.PacketBytes) * cfg.Tick.Seconds()
	maxWindow := int(capPktPerTick)*cfg.HorizonTicks + 1
	if s.window > maxWindow {
		t.Fatalf("window %d exceeds the 18 Mbps cap (max %d)", s.window, maxWindow)
	}
	// The belief mean must saturate near the cap, not beyond it.
	if got := beliefMeanMbps(s); got > cfg.MaxRateMbps+1 {
		t.Fatalf("belief mean %.1f Mbps beyond cap", got)
	}
}

func TestSproutOnStableLink(t *testing.T) {
	sim := netsim.NewSim()
	s := New(DefaultConfig())
	d := netsim.NewDumbbell(sim, func(dst netsim.Receiver) netsim.Link {
		return netsim.NewFixedLink(sim, netsim.NewDropTail(1_000_000), 8, 10*time.Millisecond, dst, 1)
	}, 1400, []netsim.FlowSpec{{Ctrl: s, AckDelay: 10 * time.Millisecond}})
	d.Run(30 * time.Second)
	m := d.Metrics[0]
	tput := m.MeanMbps(30 * time.Second)
	if tput < 3 {
		t.Errorf("sprout throughput = %.2f Mbps on 8 Mbps link", tput)
	}
	if p95 := m.Delay.Percentile(95); p95 > 0.2 {
		t.Errorf("sprout p95 delay = %.0f ms; should stay low", p95*1000)
	}
}

// The paper's Fig. 11 mechanism: when capacity jumps far above the cap,
// Sprout cannot use it.
func TestSproutMissesCapacityAboveCap(t *testing.T) {
	sim := netsim.NewSim()
	s := New(DefaultConfig())
	d := netsim.NewDumbbell(sim, func(dst netsim.Receiver) netsim.Link {
		return netsim.NewFixedLink(sim, netsim.NewDropTail(5_000_000), 100, 5*time.Millisecond, dst, 1)
	}, 1400, []netsim.FlowSpec{{Ctrl: s, AckDelay: 5 * time.Millisecond}})
	d.Run(20 * time.Second)
	tput := d.Metrics[0].MeanMbps(20 * time.Second)
	if tput > 20 {
		t.Fatalf("sprout delivered %.1f Mbps; the 18 Mbps cap should bind", tput)
	}
	if tput < 5 {
		t.Fatalf("sprout delivered %.1f Mbps; should at least approach the cap", tput)
	}
}

// reference is Tick as it stood before the look-ahead, with the observe,
// poissonSurvival, forecast and percentileLambda it called, all verbatim:
// every tick diffuses the belief, and forecast diffuses a copy of it whole
// once per level. It runs its own controller, so next and ahead below are its
// own scratch. Its diffusion kernel is the one thing that varies: the shipped
// diffuse, which the look-ahead left alone and under which the tick gates
// require Tick's bits, or, with scatter, the kernel the stencil replaced,
// under which the stencil gates require beliefs within 1e-12.
type reference struct {
	*Sprout
	scatter   bool
	sigmaBins float64 // the scatter kernel's σ, in bins
}

func referenceFor(cfg Config, scatter bool) *reference {
	s := New(cfg)
	sigmaPkts := cfg.SigmaMbpsPerSqrtSec * 1e6 / 8 / float64(cfg.PacketBytes) *
		cfg.Tick.Seconds() * math.Sqrt(cfg.Tick.Seconds())
	sigmaBins := sigmaPkts / s.lambdaStep
	if sigmaBins < 0.5 {
		sigmaBins = 0.5
	}
	return &reference{Sprout: s, scatter: scatter, sigmaBins: sigmaBins}
}

// referenceTick shadows (*Sprout).Tick step for step.
func (s *reference) referenceTick(time.Duration) {
	s.evolve(s.belief)
	s.referenceObserve(s.arrivals, s.saturatedTick())
	s.arrivals = 0
	s.rttSumTick, s.rttCntTick = 0, 0
	s.window = s.referenceWholeForecast()
}

// evolve diffuses dist in place by one tick through the reference's kernel.
func (s *reference) evolve(dist []float64) {
	if s.scatter {
		s.referenceDiffuse(dist)
	} else {
		s.diffuse(dist, dist)
	}
}

// referenceDiffuse is the pre-stencil diffuse, verbatim: the kernel rebuilt
// with math.Exp on every call, mass scattered from each source bin with a
// clamp and a division per tap.
func (s *reference) referenceDiffuse(dist []float64) {
	n := len(dist)
	for i := range s.next {
		s.next[i] = 0
	}
	// Gaussian kernel truncated at 3σ.
	radius := int(3*s.sigmaBins) + 1
	var kernel []float64
	var ksum float64
	for k := -radius; k <= radius; k++ {
		w := math.Exp(-float64(k) * float64(k) / (2 * s.sigmaBins * s.sigmaBins))
		kernel = append(kernel, w)
		ksum += w
	}
	for i, p := range dist {
		if p == 0 {
			continue
		}
		for k := -radius; k <= radius; k++ {
			j := i + k
			if j < 0 {
				j = 0 // reflect mass at the boundaries
			}
			if j >= n {
				j = n - 1
			}
			s.next[j] += p * kernel[k+radius] / ksum
		}
	}
	esc := s.cfg.EscapeProb
	u := esc / float64(n)
	var total float64
	for i := range dist {
		dist[i] = s.next[i]*(1-esc) + u
		total += dist[i]
	}
	for i := range dist {
		dist[i] /= total
	}
}

func (s *reference) referenceObserve(k int, saturated bool) {
	var total float64
	if saturated {
		lgk, _ := math.Lgamma(float64(k) + 1)
		for i := range s.belief {
			lam := s.lambda(i)
			var like float64
			if lam <= 0 {
				if k == 0 {
					like = 1
				} else {
					like = 1e-12
				}
			} else {
				like = math.Exp(float64(k)*math.Log(lam) - lam - lgk)
			}
			s.belief[i] *= like
			total += s.belief[i]
		}
	} else {
		for i := range s.belief {
			like := referencePoissonSurvival(s.lambda(i), k)
			s.belief[i] *= like
			total += s.belief[i]
		}
	}
	if total <= 0 || math.IsNaN(total) {
		s.resetBelief()
		return
	}
	for i := range s.belief {
		s.belief[i] /= total
	}
}

// referencePoissonSurvival returns P(Poisson(lam) >= k).
func referencePoissonSurvival(lam float64, k int) float64 {
	if k <= 0 {
		return 1
	}
	if lam <= 0 {
		return 1e-12
	}
	// 1 - CDF(k-1), computed with an iterative pmf.
	pmf := math.Exp(-lam)
	cdf := pmf
	for j := 1; j < k; j++ {
		pmf *= lam / float64(j)
		cdf += pmf
	}
	surv := 1 - cdf
	if surv < 1e-12 {
		surv = 1e-12
	}
	return surv
}

func (s *reference) referenceWholeForecast() int {
	// Effective horizon in (possibly fractional) ticks: one RTT's worth of
	// deliveries, never more than the delay-control horizon.
	eff := float64(s.cfg.HorizonTicks)
	if s.srtt > 0 {
		if rttTicks := s.srtt.Seconds() / s.cfg.Tick.Seconds(); rttTicks < eff {
			eff = rttTicks
		}
	}
	dist := s.ahead
	copy(dist, s.belief)
	var cum float64
	for h := 0; eff > 0; h++ {
		s.evolve(dist)
		p := s.percentileLambda(dist, s.cfg.Percentile)
		if eff >= 1 {
			cum += p
			eff--
		} else {
			cum += p * eff
			eff = 0
		}
	}
	w := int(cum)
	if w < 1 {
		w = 1 // always keep probing minimally
	}
	return w
}

// percentileLambda returns the p-th percentile of λ under dist.
func (s *reference) percentileLambda(dist []float64, p float64) float64 {
	target := p / 100
	var acc float64
	for i, q := range dist {
		acc += q
		if acc >= target {
			return s.lambda(i)
		}
	}
	return s.lambda(len(dist) - 1)
}

// tickStep is what one tick feeds a controller: an OnTimeout first if set,
// then acks acknowledgements of the given RTT (0: no RTT sample), the i-th
// of them late by jitter[i] where jitter has one, then Tick.
type tickStep struct {
	timeout bool
	acks    int
	rtt     time.Duration
	jitter  []time.Duration
}

func (st tickStep) apply(s *Sprout, now time.Duration, tick func(time.Duration)) {
	if st.timeout {
		s.OnTimeout(now)
	}
	for i := 0; i < st.acks; i++ {
		rtt := st.rtt
		if i < len(st.jitter) {
			rtt += st.jitter[i]
		}
		s.OnAck(now, cc.AckSample{RTT: rtt})
	}
	tick(now)
}

// oraclePair is a controller run by Tick beside the reference.
type oraclePair struct {
	got  *Sprout
	want *reference
	now  time.Duration
	tick int
	// swaps counts the ticks that took the look-ahead for their belief
	// instead of diffusing; depths[h] the ticks whose forecast was h levels
	// deep, deeper the levels below the first over all ticks, and fractional
	// the ticks that scaled the last level.
	swaps, fractional, deeper int
	depths                    [9]int
	// sc counts the searches got's forecast made and the running sums they
	// evaluated.
	sc searchCount
}

func newOraclePair(cfg Config, scatter bool) *oraclePair {
	return &oraclePair{got: New(cfg), want: referenceFor(cfg, scatter)}
}

// step feeds both controllers one tick and requires the same window, a
// shipped belief that is a distribution, and the reference's belief: bit for
// bit under the shipped kernel, within 1e-12 under the scatter kernel.
func (p *oraclePair) step(t testing.TB, st tickStep) {
	t.Helper()
	p.now += p.got.cfg.Tick
	p.tick++
	ahead := &p.got.ahead[0]
	st.apply(p.got, p.now, func(time.Duration) { p.got.tick(&p.sc) })
	st.apply(p.want.Sprout, p.now, p.want.referenceTick)
	if &p.got.belief[0] == ahead {
		p.swaps++
	}
	depth := p.got.cfg.HorizonTicks
	if eff := p.got.srtt.Seconds() / p.got.cfg.Tick.Seconds(); p.got.srtt > 0 && eff < float64(depth) {
		depth = int(math.Ceil(eff))
		if eff != math.Floor(eff) {
			p.fractional++
		}
	}
	p.depths[min(depth, len(p.depths)-1)]++
	p.deeper += depth - 1
	if p.got.window != p.want.window {
		t.Fatalf("tick %d (%+v): window %d, reference %d", p.tick, st, p.got.window, p.want.window)
	}
	var total float64
	for i, q := range p.got.belief {
		w := p.want.belief[i]
		if !(q >= 0) {
			t.Fatalf("tick %d (%+v): belief[%d] = %v", p.tick, st, i, q)
		}
		if math.Float64bits(q) != math.Float64bits(w) && !(p.want.scatter && math.Abs(q-w) <= 1e-12) {
			t.Fatalf("tick %d (%+v): belief[%d] = %v, reference %v (off by %g)", p.tick, st, i, q, w, q-w)
		}
		total += q
	}
	if math.Abs(total-1) > 1e-12 {
		t.Fatalf("tick %d (%+v): belief sums to %v", p.tick, st, total)
	}
}

// firstBitDiff returns the first index at which a and b differ in any bit, or
// -1 if there is none.
func firstBitDiff(a, b []float64) int {
	for i, q := range a {
		if math.Float64bits(q) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// seededSteps draws ticks in streaks of one kind — idle, censored (RTTs at the
// floor baseRTT) or saturated (RTTs showing queueing) — of 1 to 40 ticks, 0 to
// 30 acks a tick, with an OnTimeout on about one tick in 200 wherever it
// falls, mid-streak included.
func seededSteps(rng *rand.Rand, baseRTT time.Duration, ticks int, step func(tickStep)) {
	for done := 0; done < ticks; {
		kind := rng.Intn(3)
		for streak := 1 + rng.Intn(40); streak > 0 && done < ticks; streak-- {
			st := tickStep{timeout: rng.Intn(200) == 0}
			switch kind {
			case 1:
				st.acks, st.rtt = rng.Intn(31), baseRTT+time.Duration(rng.Intn(1000))*time.Microsecond
			case 2:
				st.acks, st.rtt = rng.Intn(31), 2*baseRTT+5*time.Millisecond+time.Duration(rng.Intn(1000))*time.Microsecond
			}
			step(st)
			done++
		}
	}
}

// stencilSteps draws the stencil gates' ticks independently of each other:
// an OnTimeout with no acks on about one tick in 50, else idle, censored (up
// to the per-tick rate cap in acks, RTTs at the floor baseRTT) or saturated
// (up to twice the cap, RTTs showing queueing), each ack late by its own
// jitter of under 1 ms.
func stencilSteps(rng *rand.Rand, cfg Config, baseRTT time.Duration, ticks int, step func(tickStep)) {
	perTick := int(cfg.MaxRateMbps*1e6/8/float64(cfg.PacketBytes)*cfg.Tick.Seconds()) + 1
	for tick := 0; tick < ticks; tick++ {
		var st tickStep
		switch mode := rng.Intn(100); {
		case mode < 2:
			st.timeout = true
		case mode < 25: // idle
		case mode < 60: // censored
			st.acks, st.rtt = 1+rng.Intn(perTick), baseRTT
		default: // saturated
			st.acks, st.rtt = 1+rng.Intn(2*perTick), 2*baseRTT+5*time.Millisecond
		}
		for i := 0; i < st.acks; i++ {
			st.jitter = append(st.jitter, time.Duration(rng.Intn(1000))*time.Microsecond)
		}
		step(st)
	}
}

// kernelShapes are the Bins × σ pairs that take the stencil's bounds through
// every shape: kernels far narrower than the belief, kernels whose
// 2·radius+1 taps exceed Bins (so no bin has a full stencil), and a radius
// beyond Bins itself.
var kernelShapes = []struct {
	bins  int
	sigma float64
}{
	{8, 200},
	{8, 0.5}, {8, 5}, {8, 40},
	{16, 0.5}, {16, 5}, {16, 40},
	{31, 0.5}, {31, 5}, {31, 40},
	{128, 0.5}, {128, 5}, {128, 40},
	{257, 0.5}, {257, 5}, {257, 40},
}

// TestStencilMatchesReference is the old-vs-new gate for the forecast kernel:
// 12 000 ticks at the default config, a third of them with a sub-tick srtt
// (fractional forecast horizon), the rest with srtt spanning several ticks.
func TestStencilMatchesReference(t *testing.T) {
	for seed, baseRTT := range []time.Duration{4 * time.Millisecond, 45 * time.Millisecond, 150 * time.Millisecond} {
		cfg := DefaultConfig()
		p := newOraclePair(cfg, true)
		stencilSteps(rand.New(rand.NewSource(int64(seed+1))), cfg, baseRTT, 4000, func(st tickStep) { p.step(t, st) })
	}
}

// TestStencilNarrowAndWide holds the stencil to the scatter kernel at every
// shape of kernelShapes.
func TestStencilNarrowAndWide(t *testing.T) {
	for i, sh := range kernelShapes {
		t.Run(fmt.Sprintf("bins%d_sigma%g", sh.bins, sh.sigma), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Bins, cfg.SigmaMbpsPerSqrtSec = sh.bins, sh.sigma
			p := newOraclePair(cfg, true)
			stencilSteps(rand.New(rand.NewSource(int64(100+i))), cfg, 30*time.Millisecond, 300, func(st tickStep) { p.step(t, st) })
		})
	}
}

// Tick and OnAck run once per 20 ms and once per packet for every Sprout
// flow of a metro sweep; neither may allocate.
func TestTickAndOnAckZeroAllocs(t *testing.T) {
	s := New(DefaultConfig())
	ack := cc.AckSample{RTT: 40 * time.Millisecond}
	if n := testing.AllocsPerRun(1000, func() { s.OnAck(0, ack) }); n != 0 {
		t.Errorf("OnAck: %v allocs/run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { s.OnAck(0, ack); s.Tick(0) }); n != 0 {
		t.Errorf("Tick: %v allocs/run, want 0", n)
	}
}

// TestRestoreRejectsHostileSnapshot: a snapshot whose belief is not a
// probability distribution, whose window is below 1, or whose accumulators
// hold values no run reaches, must fail the decoder and leave the controller
// as it was.
func TestRestoreRejectsHostileSnapshot(t *testing.T) {
	donor := New(DefaultConfig())
	for tick := 0; tick < 20; tick++ {
		saturatedAcks(donor, 7)
		donor.Tick(0)
	}
	saturatedAcks(donor, 3) // a tick in progress: every accumulator is nonzero
	encode := func(mutate func(src *Sprout)) *snap.Decoder {
		src := *donor
		src.belief = append([]float64(nil), donor.belief...)
		mutate(&src)
		e := snap.NewEncoder()
		src.Walk(snap.Save(e))
		data, err := e.Encode(snap.Version)
		if err != nil {
			t.Fatal(err)
		}
		d, err := snap.Decode(data, snap.Version)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}

	s := New(DefaultConfig())
	d := encode(func(*Sprout) {})
	s.Walk(snap.Load(d))
	if err := d.Done(); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}
	if s.window != donor.window || s.belief[10] != donor.belief[10] || s.rttSumTick != donor.rttSumTick {
		t.Fatalf("valid snapshot not applied")
	}

	hostile := map[string]func(src *Sprout){
		"NaN bin":      func(s *Sprout) { s.belief[3] = math.NaN() },
		"+Inf bin":     func(s *Sprout) { s.belief[3] = math.Inf(1) },
		"-Inf bin":     func(s *Sprout) { s.belief[3] = math.Inf(-1) },
		"negative bin": func(s *Sprout) { s.belief[3], s.belief[4] = -0.25, s.belief[4]+s.belief[3]+0.25 },
		"sums to 2": func(s *Sprout) {
			for i := range s.belief {
				s.belief[i] *= 2
			}
		},
		"all zero": func(s *Sprout) {
			for i := range s.belief {
				s.belief[i] = 0
			}
		},
		"window 0":            func(s *Sprout) { s.window = 0 },
		"window -5":           func(s *Sprout) { s.window = -5 },
		"negative arrivals":   func(s *Sprout) { s.arrivals = -1 },
		"negative rttCntTick": func(s *Sprout) { s.rttCntTick = -1 },
		"negative rttMin":     func(s *Sprout) { s.rttMin = -time.Millisecond },
		"negative rttSumTick": func(s *Sprout) { s.rttSumTick = -time.Millisecond },
		"negative srtt":       func(s *Sprout) { s.srtt = -time.Millisecond },
		"rtt sum without count": func(s *Sprout) {
			s.rttCntTick = 0
		},
	}
	for name, mutate := range hostile {
		s := New(DefaultConfig())
		d := encode(mutate)
		s.Walk(snap.Load(d))
		if d.Err() == nil {
			t.Errorf("%s: snapshot accepted", name)
		}
		if s.window != 4 || s.belief[3] != 1/float64(len(s.belief)) || s.arrivals != 0 || s.srtt != 0 {
			t.Errorf("%s: rejected snapshot still overwrote the controller", name)
		}
	}
}

// searchGuard requires that the pair's forecasts searched once per level
// below the first, where the reference diffuses a whole level, and evaluated
// at most maxEvals running sums per search on average, where a scan from bin
// 0 would evaluate one per bin up to the percentile; it returns that mean.
func (p *oraclePair) searchGuard(t testing.TB, maxEvals float64) float64 {
	t.Helper()
	if p.sc.searches != p.deeper {
		t.Errorf("%d searches for %d forecast levels below the first", p.sc.searches, p.deeper)
	}
	if p.sc.searches == 0 {
		return 0
	}
	mean := float64(p.sc.evals) / float64(p.sc.searches)
	if mean > maxEvals {
		t.Errorf("%d searches evaluated %d running sums, %.2f each; want at most %g", p.sc.searches, p.sc.evals, mean, maxEvals)
	}
	return mean
}

// TestTickMatchesReference is the old-vs-new gate for the look-ahead tick:
// 2×10⁵ seeded ticks at the default config, over base RTTs that put srtt
// between 4 and 150 ms, so that the forecast runs one to five levels deep and
// scales its last level by every kind of fraction.
func TestTickMatchesReference(t *testing.T) {
	cfg := DefaultConfig()
	var swaps, fractional, ticks int
	var depths [9]int
	var all oraclePair // the searches and levels of every run
	for seed, baseRTT := range []time.Duration{4, 12, 18, 25, 35, 50, 70, 150} {
		p := newOraclePair(cfg, false)
		seededSteps(rand.New(rand.NewSource(int64(seed+1))), baseRTT*time.Millisecond, 25000, func(st tickStep) { p.step(t, st) })
		swaps, fractional, ticks = swaps+p.swaps, fractional+p.fractional, ticks+p.tick
		all.deeper, all.sc.searches, all.sc.evals = all.deeper+p.deeper, all.sc.searches+p.sc.searches, all.sc.evals+p.sc.evals
		for h, n := range p.depths {
			depths[h] += n
		}
	}
	t.Logf("%d ticks, %d swapped the look-ahead in, forecast depths %v, %d with a fractional last level", ticks, swaps, depths, fractional)
	// No vacuous pass: nearly every tick must have taken the look-ahead (all
	// but the first and those after an OnTimeout), every depth occurred, and
	// each deeper level was searched for from the level above in a few steps.
	if swaps < ticks*98/100 || swaps == ticks {
		t.Errorf("%d of %d ticks swapped the look-ahead in; want nearly all, not all", swaps, ticks)
	}
	for h := 1; h <= cfg.HorizonTicks; h++ {
		if depths[h] < ticks/100 {
			t.Errorf("only %d of %d ticks forecast %d levels deep", depths[h], ticks, h)
		}
	}
	if fractional < ticks/10 {
		t.Errorf("only %d of %d ticks scaled a fractional last level", fractional, ticks)
	}
	if all.deeper < ticks {
		t.Errorf("only %d forecast levels below the first in %d ticks", all.deeper, ticks)
	}
	t.Logf("%d deeper levels searched, %.2f running sums each", all.sc.searches, all.searchGuard(t, 4))
}

// TestTickMatchesReferenceShapes holds Tick to the reference at each shape of
// kernelShapes — kernels wider than the belief among them, where a row of the
// tables reaches past both ends — at the default five-tick horizon, and then
// at horizons of 1 (no deeper level, no rows), 2 and 8 ticks over a base RTT
// of 100 ms, which forecasts 5 to 8 levels deep.
func TestTickMatchesReferenceShapes(t *testing.T) {
	for _, horizon := range []int{5, 1, 2, 8} {
		for i, sh := range kernelShapes {
			name, baseRTT := fmt.Sprintf("bins%d_sigma%g", sh.bins, sh.sigma), 50*time.Millisecond
			if horizon != 5 {
				name, baseRTT = fmt.Sprintf("%s_horizon%d", name, horizon), 100*time.Millisecond
			}
			t.Run(name, func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Bins, cfg.SigmaMbpsPerSqrtSec, cfg.HorizonTicks = sh.bins, sh.sigma, horizon
				p := newOraclePair(cfg, false)
				seededSteps(rand.New(rand.NewSource(int64(100+i))), baseRTT, 300, func(st tickStep) { p.step(t, st) })
				if p.swaps < 280 {
					t.Errorf("%d of 300 ticks swapped the look-ahead in", p.swaps)
				}
				if horizon > 1 && p.deeper < 300 {
					t.Errorf("only %d forecast levels below the first in 300 ticks", p.deeper)
				}
				if horizon == 8 && p.depths[8] == 0 {
					t.Errorf("no forecast ran 8 levels deep: depths %v", p.depths)
				}
				p.searchGuard(t, 2+float64(cfg.Bins)/8)
			})
		}
	}
}

// TestPercentileBinStartIndependent: on the looked-ahead beliefs of seeded
// tick streams, every level's running sum never decreases from bin to bin,
// and percentileBin returns what a scan from bin 0 does from every start
// bin: for the forecast's target, a random one, and one that a running sum
// equals.
func TestPercentileBinStartIndependent(t *testing.T) {
	check := func(t *testing.T, s *Sprout, rng *rand.Rand) {
		n := len(s.ahead)
		c := make([]float64, n)
		for h := 2; h <= s.cfg.HorizonTicks; h++ {
			for i := range c {
				if c[i] = s.cumulative(h, i, nil); i > 0 && c[i] < c[i-1] {
					t.Fatalf("level %d: running sum %v through bin %d, %v through bin %d", h, c[i-1], i-1, c[i], i)
				}
			}
			for _, target := range []float64{s.cfg.Percentile / 100, rng.Float64(), c[rng.Intn(n-1)]} {
				scan := 0
				for scan < n-1 && c[scan] < target {
					scan++
				}
				for start := 0; start < n; start++ {
					if got := s.percentileBin(h, start, target, nil); got != scan {
						t.Fatalf("level %d, target %v: search from bin %d found bin %d, scan from 0 bin %d", h, target, start, got, scan)
					}
				}
			}
		}
	}
	for _, c := range []struct {
		bins, horizon int
		sigma         float64
		baseRTT       time.Duration
	}{
		{128, 5, 5, 45 * time.Millisecond},
		{31, 8, 40, 100 * time.Millisecond},
		{257, 3, 0.5, 30 * time.Millisecond},
	} {
		t.Run(fmt.Sprintf("bins%d_sigma%g_horizon%d", c.bins, c.sigma, c.horizon), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Bins, cfg.SigmaMbpsPerSqrtSec, cfg.HorizonTicks = c.bins, c.sigma, c.horizon
			s, rng := New(cfg), rand.New(rand.NewSource(int64(c.bins)))
			var now time.Duration
			tick := 0
			seededSteps(rand.New(rand.NewSource(5)), c.baseRTT, 1500, func(st tickStep) {
				now += cfg.Tick
				st.apply(s, now, s.Tick)
				if tick++; tick%30 == 0 {
					check(t, s, rng)
				}
			})
		})
	}
}

// TestObservePastTheTables: observe takes a count past the tables' last row
// through a row it builds in next, and must fold it, like the last row the
// tables hold, into the belief with the bits referenceObserve gives.
func TestObservePastTheTables(t *testing.T) {
	cfg := DefaultConfig()
	base := New(cfg)
	base.OnAck(0, cc.AckSample{RTT: 20 * time.Millisecond})
	for tick := 0; tick < 50; tick++ {
		saturatedAcks(base, 20)
		base.Tick(0)
	}
	rows := int(cfg.likeRows())
	for _, k := range []int{rows - 1, rows, rows + 7, 400} {
		for _, saturated := range []bool{false, true} {
			got, want := New(cfg), referenceFor(cfg, false)
			copy(got.belief, base.belief)
			copy(want.belief, base.belief)
			got.observe(k, saturated)
			want.referenceObserve(k, saturated)
			if i := firstBitDiff(got.belief, want.belief); i >= 0 {
				t.Errorf("%d arrivals, saturated %v: belief[%d] = %v, reference %v", k, saturated, i, got.belief[i], want.belief[i])
			}
		}
	}
}

// TestSnapshotDropsLookAhead: the look-ahead is derived state. A controller
// restored from a snapshot taken after tick n — mid-idle-streak included —
// diffuses its belief where the original swaps the look-ahead in, and the two
// must stay identical in window, belief bits and snapshot bytes.
func TestSnapshotDropsLookAhead(t *testing.T) {
	encode := func(s *Sprout) []byte {
		e := snap.NewEncoder()
		s.Walk(snap.Save(e))
		data, err := e.Encode(snap.Version)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	var steps []tickStep
	seededSteps(rand.New(rand.NewSource(7)), 45*time.Millisecond, 1600, func(st tickStep) { steps = append(steps, st) })
	idle := 0
	for n := 1; n <= 600; n++ {
		// Every 37th tick, and every 7th of those inside an idle streak.
		if steps[n-1].acks == 0 && steps[n].acks == 0 && !steps[n].timeout && n%7 == 0 {
			idle++
		} else if n%37 != 0 {
			continue
		}
		orig := New(DefaultConfig())
		var now time.Duration
		for _, st := range steps[:n] {
			now += orig.cfg.Tick
			st.apply(orig, now, orig.Tick)
		}
		d, err := snap.Decode(encode(orig), snap.Version)
		if err != nil {
			t.Fatal(err)
		}
		resumed := New(DefaultConfig())
		resumed.Walk(snap.Load(d))
		if err := d.Done(); err != nil {
			t.Fatalf("n=%d: restore: %v", n, err)
		}
		if resumed.aheadOK || !orig.aheadOK {
			t.Fatalf("n=%d: look-ahead valid: original %v, restored %v; want true, false", n, orig.aheadOK, resumed.aheadOK)
		}
		for k, st := range steps[n : n+1000] {
			now += orig.cfg.Tick
			st.apply(orig, now, orig.Tick)
			st.apply(resumed, now, resumed.Tick)
			if orig.window != resumed.window {
				t.Fatalf("n=%d, %d ticks on: window %d, resumed %d", n, k+1, orig.window, resumed.window)
			}
			if i := firstBitDiff(orig.belief, resumed.belief); i >= 0 {
				t.Fatalf("n=%d, %d ticks on: belief[%d] = %v, resumed %v", n, k+1, i, orig.belief[i], resumed.belief[i])
			}
		}
		if !bytes.Equal(encode(orig), encode(resumed)) {
			t.Fatalf("n=%d: snapshots differ after 1000 further ticks", n)
		}
	}
	if idle < 10 {
		t.Fatalf("only %d snapshots fell inside an idle streak", idle)
	}
}

// TestNewConcurrentSharesTables: New hands every controller of a Config the
// same read-only tables, also when trials build controllers of two Configs
// concurrently and keep evicting each other's; each controller must behave as
// one built alone, and building one after the first allocates only the
// controller, its belief and its two buffers.
func TestNewConcurrentSharesTables(t *testing.T) {
	cfgs := [2]Config{DefaultConfig(), DefaultConfig()}
	cfgs[1].Bins, cfgs[1].SigmaMbpsPerSqrtSec = 64, 9
	var steps []tickStep
	seededSteps(rand.New(rand.NewSource(3)), 30*time.Millisecond, 200, func(st tickStep) { steps = append(steps, st) })
	run := func(cfg Config) (*Sprout, []int) {
		s := New(cfg)
		windows := make([]int, 0, len(steps))
		var now time.Duration
		for _, st := range steps {
			now += cfg.Tick
			st.apply(s, now, s.Tick)
			windows = append(windows, s.window)
		}
		return s, windows
	}
	var alone [2]*Sprout
	var aloneWindows [2][]int
	for c, cfg := range cfgs {
		alone[c], aloneWindows[c] = run(cfg)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 6; rep++ {
				c := (g + rep) % 2
				s, windows := run(cfgs[c])
				if !slices.Equal(windows, aloneWindows[c]) {
					t.Errorf("goroutine %d, config %d: windows differ from a controller built alone", g, c)
				}
				if i := firstBitDiff(s.belief, alone[c].belief); i >= 0 {
					t.Errorf("goroutine %d, config %d: belief[%d] = %v, alone %v", g, c, i, s.belief[i], alone[c].belief[i])
				}
			}
		}(g)
	}
	wg.Wait()

	first := New(DefaultConfig())
	if second := New(DefaultConfig()); second.tables != first.tables {
		t.Errorf("two controllers of one Config hold different tables")
	}
	if n := testing.AllocsPerRun(100, func() { New(DefaultConfig()) }); n > 2 {
		t.Errorf("New: %v allocs/run after the first controller, want at most 2 (the struct and the one buffer its three rows share)", n)
	}
}

// FuzzTickMatchesReference reads two bytes per tick — ack count in the low
// five bits and an OnTimeout flag in the top bit of the first, the acks' RTT in
// milliseconds in the second — and holds Tick to the reference on them. The seed
// corpus is testdata/fuzz/FuzzTickMatchesReference.
func FuzzTickMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p := newOraclePair(DefaultConfig(), false)
		for ; len(data) >= 2; data = data[2:] {
			p.step(t, tickStep{
				timeout: data[0]&0x80 != 0,
				acks:    int(data[0] & 31),
				rtt:     time.Duration(data[1]) * time.Millisecond,
			})
		}
	})
}

// BenchmarkTick mirrors the committed benchmark's sprout.tick_ns rungs — one
// flow fed at the metro's ~13 packets per second, and at a saturated 1600,
// both at RTT 40 ms = two forecast levels — and adds what a metro tick mostly
// is: the same trickle at RTT 120 ms (five levels), and no acks at all. Last,
// 1600 per second whose RTTs show queueing over a 40 ms floor, at RTT 120 ms:
// every tick a saturated observation and five levels of a belief near the cap.
func BenchmarkTick(b *testing.B) {
	for _, c := range []struct {
		name      string
		pps       float64
		rtt, base time.Duration
	}{
		{"pps13", 13, 40 * time.Millisecond, 0},
		{"pps1600", 1600, 40 * time.Millisecond, 0},
		{"pps13_rtt120", 13, 120 * time.Millisecond, 0},
		{"idle", 0, 0, 0},
		{"pps1600_rtt120", 1600, 120 * time.Millisecond, 40 * time.Millisecond},
	} {
		b.Run(c.name, func(b *testing.B) {
			s := New(DefaultConfig())
			if c.base > 0 {
				s.OnAck(0, cc.AckSample{RTT: c.base})
			}
			iv := s.TickInterval()
			var now time.Duration
			owed := 0.0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now += iv
				for owed += c.pps * iv.Seconds(); owed >= 1; owed-- {
					s.OnAck(now, cc.AckSample{RTT: c.rtt})
				}
				s.Tick(now)
			}
		})
	}
}

// BenchmarkTables is the first New of a Config: building the tables its
// controllers share.
func BenchmarkTables(b *testing.B) {
	cfg := DefaultConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lastTables.Store(nil)
		tablesFor(cfg)
	}
}
