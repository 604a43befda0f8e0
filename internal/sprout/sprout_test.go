package sprout

import (
	"fmt"
	"math"
	"math/rand"
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
	}
	for i, mut := range mutations {
		c := DefaultConfig()
		mut(&c)
		if c.Validate() == nil {
			t.Errorf("mutation %d accepted", i)
		}
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
	got := s.BeliefMeanMbps()
	if math.Abs(got-5.6) > 2 {
		t.Fatalf("belief mean = %.2f Mbps, want ≈5.6", got)
	}
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
	if s.Window() >= 50 {
		t.Fatalf("window = %d; forecast not cautious", s.Window())
	}
	if s.Window() < 5 {
		t.Fatalf("window = %d; forecast collapsed", s.Window())
	}
}

func TestWindowNeverBelowOne(t *testing.T) {
	s := New(DefaultConfig())
	for tick := 0; tick < 100; tick++ {
		s.Tick(0) // zero arrivals throughout
	}
	if s.Window() < 1 {
		t.Fatalf("window = %d; must keep probing", s.Window())
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
	before := s.BeliefMeanMbps()
	s.OnTimeout(0)
	after := s.BeliefMeanMbps()
	if after >= before {
		t.Fatalf("belief mean %v -> %v; reset should spread it to uniform", before, after)
	}
	if s.Window() != 1 {
		t.Fatalf("window after timeout = %d, want 1", s.Window())
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
	if s.Window() > maxWindow {
		t.Fatalf("window %d exceeds the 18 Mbps cap (max %d)", s.Window(), maxWindow)
	}
	// The belief mean must saturate near the cap, not beyond it.
	if got := s.BeliefMeanMbps(); got > cfg.MaxRateMbps+1 {
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

// reference is the forecaster as it stood before the folded stencil: the same
// controller state and observe step, with the scatter-form diffuse and the
// allocating forecast below in place of the shipped ones. It is the oracle
// the equivalence tests hold the shipped kernel to.
type reference struct {
	*Sprout   // its own controller, so s.next below is its own scratch
	sigmaBins float64
}

func newReference(cfg Config) *reference {
	s := New(cfg)
	sigmaPkts := cfg.SigmaMbpsPerSqrtSec * 1e6 / 8 / float64(cfg.PacketBytes) *
		cfg.Tick.Seconds() * math.Sqrt(cfg.Tick.Seconds())
	sigmaBins := sigmaPkts / s.lambdaStep
	if sigmaBins < 0.5 {
		sigmaBins = 0.5
	}
	return &reference{Sprout: s, sigmaBins: sigmaBins}
}

// Tick shadows (*Sprout).Tick step for step.
func (s *reference) Tick(time.Duration) {
	s.ticks++
	s.referenceDiffuse(s.belief)
	s.observe(s.arrivals, s.saturatedTick())
	s.arrivals = 0
	s.rttSumTick, s.rttCntTick = 0, 0
	s.window = s.referenceForecast()
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

// referenceForecast is the pre-stencil forecast, verbatim.
func (s *reference) referenceForecast() int {
	eff := float64(s.cfg.HorizonTicks)
	if s.srtt > 0 {
		if rttTicks := s.srtt.Seconds() / s.cfg.Tick.Seconds(); rttTicks < eff {
			eff = rttTicks
		}
	}
	dist := make([]float64, len(s.belief))
	copy(dist, s.belief)
	var cum float64
	for h := 0; eff > 0; h++ {
		s.referenceDiffuse(dist)
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

// driveBoth runs the shipped controller and the reference through the same
// seeded sequence of ticks — idle, censored (RTTs at the floor), saturated
// (RTTs showing queueing) and the occasional OnTimeout reset, around a base
// RTT of baseRTT — and requires, after every tick, the same window, beliefs
// within 1e-12 of each other, and a shipped belief that is a distribution.
func driveBoth(t *testing.T, cfg Config, seed int64, baseRTT time.Duration, ticks int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	got, want := New(cfg), newReference(cfg)
	perTick := int(cfg.MaxRateMbps*1e6/8/float64(cfg.PacketBytes)*cfg.Tick.Seconds()) + 1
	var now time.Duration
	for tick := 0; tick < ticks; tick++ {
		now += cfg.Tick
		acks, rtt := 0, baseRTT
		switch mode := rng.Intn(100); {
		case mode < 2:
			got.OnTimeout(now)
			want.OnTimeout(now)
		case mode < 25: // idle
		case mode < 60: // censored
			acks = 1 + rng.Intn(perTick)
		default: // saturated
			acks = 1 + rng.Intn(2*perTick)
			rtt = 2*baseRTT + 5*time.Millisecond
		}
		for i := 0; i < acks; i++ {
			ack := cc.AckSample{RTT: rtt + time.Duration(rng.Intn(1000))*time.Microsecond}
			got.OnAck(now, ack)
			want.OnAck(now, ack)
		}
		got.Tick(now)
		want.Tick(now)
		if got.Window() != want.Window() {
			t.Fatalf("tick %d: window %d, reference %d", tick, got.Window(), want.Window())
		}
		var total float64
		for i, p := range got.belief {
			if !(p >= 0) {
				t.Fatalf("tick %d: belief[%d] = %v", tick, i, p)
			}
			if d := math.Abs(p - want.belief[i]); !(d <= 1e-12) {
				t.Fatalf("tick %d: belief[%d] = %v, reference %v (off by %g)", tick, i, p, want.belief[i], d)
			}
			total += p
		}
		if math.Abs(total-1) > 1e-12 {
			t.Fatalf("tick %d: belief sums to %v", tick, total)
		}
	}
}

// TestStencilMatchesReference is the old-vs-new gate for the forecast kernel:
// 12 000 ticks at the default config, a third of them with a sub-tick srtt
// (fractional forecast horizon), the rest with srtt spanning several ticks.
func TestStencilMatchesReference(t *testing.T) {
	for seed, baseRTT := range []time.Duration{4 * time.Millisecond, 45 * time.Millisecond, 150 * time.Millisecond} {
		driveBoth(t, DefaultConfig(), int64(seed+1), baseRTT, 4000)
	}
}

// TestStencilNarrowAndWide covers every shape the stencil's bounds take:
// kernels far narrower than the belief, kernels whose 2·radius+1 taps exceed
// Bins (so no bin has a full stencil), and a radius beyond Bins itself.
func TestStencilNarrowAndWide(t *testing.T) {
	type shape struct {
		bins  int
		sigma float64
	}
	shapes := []shape{{8, 200}}
	for _, bins := range []int{8, 16, 31, 128, 257} {
		for _, sigma := range []float64{0.5, 5, 40} {
			shapes = append(shapes, shape{bins, sigma})
		}
	}
	for i, sh := range shapes {
		t.Run(fmt.Sprintf("bins%d_sigma%g", sh.bins, sh.sigma), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Bins, cfg.SigmaMbpsPerSqrtSec = sh.bins, sh.sigma
			driveBoth(t, cfg, int64(100+i), 30*time.Millisecond, 300)
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
// probability distribution, or whose window is below 1, must fail the
// decoder and leave the controller as it was.
func TestRestoreRejectsHostileSnapshot(t *testing.T) {
	donor := New(DefaultConfig())
	for tick := 0; tick < 20; tick++ {
		saturatedAcks(donor, 7)
		donor.Tick(0)
	}
	encode := func(mutate func(belief []float64, window *int)) *snap.Decoder {
		belief := append([]float64(nil), donor.belief...)
		window := donor.window
		mutate(belief, &window)
		src := *donor
		src.belief, src.window = belief, window
		e := snap.NewEncoder()
		src.Snapshot(e)
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
	d := encode(func([]float64, *int) {})
	s.Restore(d)
	if err := d.Done(); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}
	if s.window != donor.window || s.belief[10] != donor.belief[10] {
		t.Fatalf("valid snapshot not applied")
	}

	hostile := map[string]func(belief []float64, window *int){
		"NaN bin":      func(b []float64, _ *int) { b[3] = math.NaN() },
		"+Inf bin":     func(b []float64, _ *int) { b[3] = math.Inf(1) },
		"-Inf bin":     func(b []float64, _ *int) { b[3] = math.Inf(-1) },
		"negative bin": func(b []float64, _ *int) { b[3], b[4] = -0.25, b[4]+b[3]+0.25 },
		"sums to 2": func(b []float64, _ *int) {
			for i := range b {
				b[i] *= 2
			}
		},
		"all zero": func(b []float64, _ *int) {
			for i := range b {
				b[i] = 0
			}
		},
		"window 0":  func(_ []float64, w *int) { *w = 0 },
		"window -5": func(_ []float64, w *int) { *w = -5 },
	}
	for name, mutate := range hostile {
		s := New(DefaultConfig())
		d := encode(mutate)
		s.Restore(d)
		if d.Err() == nil {
			t.Errorf("%s: snapshot accepted", name)
		}
		if s.window != 4 || s.belief[3] != 1/float64(len(s.belief)) {
			t.Errorf("%s: rejected snapshot still overwrote the controller", name)
		}
	}
}

// BenchmarkTick mirrors the committed benchmark's sprout.tick_ns rungs: one
// flow fed at the metro's ~13 packets per second, and at a saturated 1600.
func BenchmarkTick(b *testing.B) {
	for _, pps := range []float64{13, 1600} {
		b.Run(fmt.Sprintf("pps%g", pps), func(b *testing.B) {
			s := New(DefaultConfig())
			iv := s.TickInterval()
			var now time.Duration
			owed := 0.0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now += iv
				for owed += pps * iv.Seconds(); owed >= 1; owed-- {
					s.OnAck(now, cc.AckSample{RTT: 40 * time.Millisecond})
				}
				s.Tick(now)
			}
		})
	}
}
