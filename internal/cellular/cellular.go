// Package cellular implements a stochastic cellular channel model that
// substitutes for the commercial 3G/UMTS and LTE networks (Etisalat, Du)
// measured in §3 of the Verus paper.
//
// The model reproduces the three channel properties the paper identifies as
// the ones that matter for congestion control:
//
//   - Burst scheduling: the radio scheduler serves a user in 1 ms
//     Transmission Time Intervals (TTIs); per-TTI service is a burst whose
//     size depends on radio conditions, so arrivals are bursty with widely
//     varying burst sizes and inter-arrival times (paper Fig. 1/2).
//   - Multi-timescale variability: a slow-fading process (Gauss–Markov /
//     Ornstein–Uhlenbeck on a dB scale, coherence seconds) modulates a
//     fast-fading process (per-TTI Gamma-distributed power, coherence
//     milliseconds), so rates fluctuate at both timescales (paper Fig. 4).
//   - Mobility: driving scenarios shorten the slow-fading coherence time and
//     widen its variance, making burst sizes and inter-arrivals vary more
//     widely, as the paper observes when repeating measurements while
//     driving.
//
// Cross-traffic coupling (paper Fig. 3) is not modeled here; it emerges in
// the simulator when several flows share one trace-driven bottleneck, which
// mirrors the paper's observation that flows couple because they share radio
// resources.
package cellular

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"repro/internal/trace"
)

// Tech selects the radio access technology profile.
type Tech int

const (
	// Tech3G models a 3G/HSPA+ cell: a user is scheduled in relatively few
	// TTIs and receives large bursts (paper Fig. 2: 3G shows larger, less
	// frequent bursts).
	Tech3G Tech = iota
	// TechLTE models an LTE cell: more frequent, smaller bursts.
	TechLTE
)

// String returns the conventional name of the technology.
func (t Tech) String() string {
	switch t {
	case Tech3G:
		return "3G"
	case TechLTE:
		return "LTE"
	default:
		return fmt.Sprintf("Tech(%d)", int(t))
	}
}

// ParseTech returns the technology named "3g" or "lte", in any case.
func ParseTech(name string) (Tech, error) {
	switch strings.ToLower(name) {
	case "3g":
		return Tech3G, nil
	case "lte":
		return TechLTE, nil
	default:
		return 0, fmt.Errorf("unknown technology %q (3g|lte)", name)
	}
}

// Operator selects one of the two modeled carriers. They differ slightly in
// mean rate and burstiness, standing in for the Du/Etisalat differences in
// paper Fig. 2.
type Operator int

const (
	// OperatorA stands in for Du.
	OperatorA Operator = iota
	// OperatorB stands in for Etisalat.
	OperatorB
)

// String returns the placeholder carrier name.
func (o Operator) String() string {
	switch o {
	case OperatorA:
		return "OpA"
	case OperatorB:
		return "OpB"
	default:
		return fmt.Sprintf("Operator(%d)", int(o))
	}
}

// ParseOperator returns the operator named "a" or "b", in any case.
func ParseOperator(name string) (Operator, error) {
	switch strings.ToLower(name) {
	case "a":
		return OperatorA, nil
	case "b":
		return OperatorB, nil
	default:
		return 0, fmt.Errorf("unknown operator %q (a|b)", name)
	}
}

// Scenario describes a measurement environment and mobility pattern. The
// seven instances below mirror §5.3 of the paper ("Campus stationary, Campus
// pedestrian, City stationary, City driving, Highway driving, Shopping Mall
// and City waterfront").
type Scenario struct {
	Name string
	// SlowSigmaDB is the standard deviation of the slow-fading process in
	// dB. Mobility widens it.
	SlowSigmaDB float64
	// SlowTau is the coherence time of the slow-fading process. Mobility
	// shortens it.
	SlowTau time.Duration
	// RateFactor scales the technology's mean rate (indoor/obstructed
	// scenarios are slower).
	RateFactor float64
	// HandoverEvery is the typical spacing between cell handovers under
	// this mobility pattern; zero means the device stays on one cell. The
	// fault layer (internal/faults) turns this into handover-stall trains.
	HandoverEvery time.Duration
	// HandoverStall is the typical delivery freeze during one handover.
	HandoverStall time.Duration
}

// The seven measurement scenarios of §5.3.
var (
	CampusStationary = Scenario{Name: "campus-stationary", SlowSigmaDB: 2.0, SlowTau: 20 * time.Second, RateFactor: 1.0}
	CampusPedestrian = Scenario{Name: "campus-pedestrian", SlowSigmaDB: 3.0, SlowTau: 8 * time.Second, RateFactor: 0.95,
		HandoverEvery: 90 * time.Second, HandoverStall: 150 * time.Millisecond}
	CityStationary = Scenario{Name: "city-stationary", SlowSigmaDB: 2.5, SlowTau: 15 * time.Second, RateFactor: 0.9}
	CityDriving    = Scenario{Name: "city-driving", SlowSigmaDB: 5.0, SlowTau: 3 * time.Second, RateFactor: 0.8,
		HandoverEvery: 25 * time.Second, HandoverStall: 250 * time.Millisecond}
	HighwayDriving = Scenario{Name: "highway-driving", SlowSigmaDB: 6.0, SlowTau: 1500 * time.Millisecond, RateFactor: 0.75,
		HandoverEvery: 12 * time.Second, HandoverStall: 400 * time.Millisecond}
	ShoppingMall   = Scenario{Name: "shopping-mall", SlowSigmaDB: 4.0, SlowTau: 5 * time.Second, RateFactor: 0.7}
	CityWaterfront = Scenario{Name: "city-waterfront", SlowSigmaDB: 3.0, SlowTau: 10 * time.Second, RateFactor: 0.85}
)

// Scenarios returns the seven §5.3 scenarios in a stable order.
func Scenarios() []Scenario {
	return []Scenario{
		CampusStationary, CampusPedestrian, CityStationary,
		CityDriving, HighwayDriving, ShoppingMall, CityWaterfront,
	}
}

// ParseScenario returns the §5.3 scenario with the given name.
func ParseScenario(name string) (Scenario, error) {
	var names []string
	for _, s := range Scenarios() {
		if s.Name == name {
			return s, nil
		}
		names = append(names, s.Name)
	}
	return Scenario{}, fmt.Errorf("unknown scenario %q (one of %s)", name, strings.Join(names, ", "))
}

// Config fully describes a channel to generate.
type Config struct {
	Tech     Tech
	Operator Operator
	Scenario Scenario
	// MeanMbps overrides the technology's default mean downlink rate when
	// positive.
	MeanMbps float64
	// Seed makes generation deterministic.
	Seed int64
}

// TTI is the scheduler's transmission time interval (1 ms, per §3 of the
// paper).
const TTI = time.Millisecond

// techParams holds the per-technology scheduler characteristics.
type techParams struct {
	meanMbps   float64 // default mean downlink rate
	schedProb  float64 // probability the user is served in a TTI
	burstSigma float64 // lognormal sigma of per-burst size jitter
	fastShape  float64 // Gamma shape of fast fading power (higher = milder)
}

func paramsFor(t Tech, o Operator) techParams {
	var p techParams
	switch t {
	case TechLTE:
		// LTE: frequent small bursts, milder fast fading, higher rate.
		p = techParams{meanMbps: 10, schedProb: 0.85, burstSigma: 0.45, fastShape: 4}
	default:
		// 3G/HSPA+: infrequent large bursts (the 5 Mbps per-device rate of
		// the paper's trace collection), stronger fast fading.
		p = techParams{meanMbps: 5, schedProb: 0.18, burstSigma: 0.75, fastShape: 2}
	}
	if o == OperatorA {
		// Operator A is slightly slower and burstier (Fig. 2 shows the two
		// carriers' distributions are shifted relative to each other).
		p.meanMbps *= 0.85
		p.burstSigma *= 1.15
	}
	return p
}

// Model generates channel traces for a Config. It is not safe for concurrent
// use; create one per goroutine.
type Model struct {
	cfg Config
	par techParams
	rng *rand.Rand
}

// NewModel returns a generator for the given configuration.
func NewModel(cfg Config) *Model {
	if cfg.Scenario.Name == "" {
		cfg.Scenario = CampusStationary
	}
	return &Model{cfg: cfg, par: paramsFor(cfg.Tech, cfg.Operator), rng: rand.New(rand.NewSource(cfg.Seed))}
}

// MeanMbps returns the configured long-term mean rate of the channel.
func (m *Model) MeanMbps() float64 {
	if m.cfg.MeanMbps > 0 {
		return m.cfg.MeanMbps * m.cfg.Scenario.RateFactor
	}
	return m.par.meanMbps * m.cfg.Scenario.RateFactor
}

// Trace generates a delivery-opportunity trace of the given duration.
// Successive calls continue the fading processes, so two calls produce
// different (but statistically identical) segments.
func (m *Model) Trace(d time.Duration) *trace.Trace {
	sc := m.cfg.Scenario
	par := m.par

	// Long-term mean bytes per TTI. Dividing by the scheduling probability
	// concentrates the same mean rate into fewer, larger bursts.
	meanRate := m.MeanMbps() * 1e6 / 8 // bytes/s
	meanBurst := meanRate * TTI.Seconds() / par.schedProb

	// Normalizers so the fading processes are mean-one and the trace's
	// long-term rate matches MeanMbps.
	sigmaLn := sc.SlowSigmaDB * math.Ln10 / 10 // dB → natural log scale
	slowNorm := math.Exp(sigmaLn * sigmaLn / 2)
	burstNorm := math.Exp(par.burstSigma * par.burstSigma / 2)

	// Ornstein–Uhlenbeck step for the slow fade, one step per TTI.
	rho := math.Exp(-TTI.Seconds() / sc.SlowTau.Seconds())
	diff := sigmaLn * math.Sqrt(1-rho*rho)

	tr := &trace.Trace{
		Name:     fmt.Sprintf("%s-%s-%s", m.cfg.Operator, m.cfg.Tech, sc.Name),
		Duration: d,
	}
	slow := m.rng.NormFloat64() * sigmaLn
	nTTI := int(d / TTI)
	for i := 0; i < nTTI; i++ {
		slow = rho*slow + diff*m.rng.NormFloat64()
		if m.rng.Float64() >= par.schedProb {
			continue
		}
		fast := gammaMeanOne(m.rng, par.fastShape)
		jitter := math.Exp(m.rng.NormFloat64()*par.burstSigma) / burstNorm
		size := meanBurst * math.Exp(slow) / slowNorm * fast * jitter
		b := int(size + 0.5)
		if b <= 0 {
			continue
		}
		// Spread the burst inside the TTI at a sub-millisecond offset so
		// packet-level arrival times show the Fig. 1 "staircase" pattern.
		at := time.Duration(i)*TTI + time.Duration(m.rng.Int63n(int64(TTI)))
		tr.Ops = append(tr.Ops, trace.Opportunity{At: at, Bytes: b})
	}
	return tr
}

// gammaMeanOne samples a Gamma(shape, 1/shape) variate (mean 1) using
// Marsaglia–Tsang; shape must be >= 1.
func gammaMeanOne(rng *rand.Rand, shape float64) float64 {
	if shape < 1 {
		shape = 1
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v / shape
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v / shape
		}
	}
}

// BurstStats aggregates a trace into burst sizes and inter-burst arrival
// times, the quantities of paper Fig. 2. Opportunities closer together than
// gap are merged into one burst.
func BurstStats(tr *trace.Trace, gap time.Duration) (sizes []float64, interarrivals []time.Duration) {
	if len(tr.Ops) == 0 {
		return nil, nil
	}
	curStart := tr.Ops[0].At
	curEnd := tr.Ops[0].At
	curBytes := tr.Ops[0].Bytes
	prevStart := time.Duration(-1)
	flush := func() {
		sizes = append(sizes, float64(curBytes))
		if prevStart >= 0 {
			interarrivals = append(interarrivals, curStart-prevStart)
		}
		prevStart = curStart
	}
	for _, op := range tr.Ops[1:] {
		if op.At-curEnd <= gap {
			curBytes += op.Bytes
			curEnd = op.At
			continue
		}
		flush()
		curStart, curEnd, curBytes = op.At, op.At, op.Bytes
	}
	flush()
	return sizes, interarrivals
}
