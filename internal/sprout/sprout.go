// Package sprout implements a stochastic-forecast congestion controller in
// the style of Sprout (Winstein, Sivaraman, Balakrishnan, NSDI 2013), the
// state-of-the-art cellular protocol the Verus paper compares against.
//
// The original Sprout models the cellular link as a Poisson packet-delivery
// process whose rate λ evolves by Brownian motion, maintains a discretized
// Bayesian belief over λ updated every 20 ms tick, and sends only as many
// packets as the *cautious* (5th-percentile) forecast of cumulative
// deliveries over the next several ticks allows. That caution is exactly
// what the Verus paper exploits: under rapidly changing conditions Sprout's
// conservative forecasts under-utilize the channel (paper Fig. 11), while
// its delay stays low (paper Fig. 8).
//
// This implementation reproduces that mechanism end-to-end — discretized
// belief, Brownian diffusion with occasional escapes, Poisson observation
// updates, percentile forecasts — driven by acknowledgement arrivals at the
// sender (the "sendonly" Sprout variant the paper uses). The forecast rate
// is capped at 18 Mbps by default, mirroring the implementation cap the
// paper reports ("the Sprout implementation bandwidth is capped at
// 18 Mbps"), which is what makes Scenario I of Fig. 11 behave as published.
package sprout

import (
	"math"
	"sync/atomic"
	"time"

	"repro/internal/cc"
)

// Config parameterizes the forecaster.
type Config struct {
	// Tick is the belief-update interval (20 ms in Sprout).
	Tick time.Duration
	// HorizonTicks is how many ticks ahead the delivery forecast extends
	// (Sprout forecasts ~100 ms; 5 ticks of 20 ms).
	HorizonTicks int
	// Percentile is the cautious quantile of the belief used for
	// forecasting (Sprout uses the 5th percentile).
	Percentile float64
	// MaxRateMbps caps the modeled link rate (the 18 Mbps implementation
	// cap). Packets above this rate are simply never forecast.
	MaxRateMbps float64
	// PacketBytes converts rates to packets.
	PacketBytes int
	// Bins is the resolution of the discretized belief.
	Bins int
	// SigmaMbpsPerSqrtSec is the Brownian-motion volatility of the link
	// rate.
	SigmaMbpsPerSqrtSec float64
	// EscapeProb is the per-tick probability mass spread uniformly to model
	// sudden rate jumps (Sprout's "escape" process).
	EscapeProb float64
}

// DefaultConfig returns parameters matching the published Sprout design.
func DefaultConfig() Config {
	return Config{
		Tick:                20 * time.Millisecond,
		HorizonTicks:        5,
		Percentile:          5,
		MaxRateMbps:         18,
		PacketBytes:         1400,
		Bins:                128,
		SigmaMbpsPerSqrtSec: 5,
		EscapeProb:          0.01,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Tick <= 0:
		return errf("tick must be positive")
	case c.HorizonTicks < 1:
		return errf("horizon must be >= 1 tick")
	case c.Percentile <= 0 || c.Percentile >= 100:
		return errf("percentile must be in (0,100)")
	case c.MaxRateMbps <= 0:
		return errf("max rate must be positive")
	case c.PacketBytes <= 0:
		return errf("packet size must be positive")
	case c.Bins < 8:
		return errf("need at least 8 belief bins")
	case c.SigmaMbpsPerSqrtSec <= 0:
		return errf("volatility must be positive")
	case c.EscapeProb < 0 || c.EscapeProb >= 1:
		return errf("escape probability must be in [0,1)")
	}
	return nil
}

type configError string

func (e configError) Error() string { return "sprout: " + string(e) }

func errf(s string) error { return configError(s) }

// tables is everything a controller derives from its Config alone. It is built
// once per distinct Config and shared, read-only, by every controller New
// hands out for it.
type tables struct {
	cfg Config
	// lambdaStep is packets-per-tick per bin.
	lambdaStep float64
	// kern[k] is the weight one tick of Brownian motion gives a move of ±k
	// bins: a Gaussian truncated at 3σ, normalized so the 2·radius+1 taps
	// sum to 1. tail[i] = Σ kern[k≥i] is the share of a bin's mass that
	// lands i or more bins to one side — what a bin i away from a boundary
	// piles onto that boundary.
	kern, tail []float64
	// expNeg[i] = exp(-λ(i)) and logLam[i] = log λ(i), observe's per-bin
	// constants.
	expNeg, logLam []float64
}

// lastTables remembers the tables of the Config New saw last. A sweep builds
// all its controllers from one Config, concurrently across trials; a miss
// only costs a rebuild.
var lastTables atomic.Pointer[tables]

func tablesFor(cfg Config) *tables {
	if t := lastTables.Load(); t != nil && t.cfg == cfg {
		return t
	}
	maxPktPerTick := cfg.MaxRateMbps * 1e6 / 8 / float64(cfg.PacketBytes) * cfg.Tick.Seconds()
	t := &tables{
		cfg:        cfg,
		lambdaStep: maxPktPerTick / float64(cfg.Bins-1),
		expNeg:     make([]float64, cfg.Bins),
		logLam:     make([]float64, cfg.Bins),
	}
	for i := range t.expNeg {
		lam := float64(i) * t.lambdaStep
		t.expNeg[i], t.logLam[i] = math.Exp(-lam), math.Log(lam)
	}
	sigmaPkts := cfg.SigmaMbpsPerSqrtSec * 1e6 / 8 / float64(cfg.PacketBytes) *
		cfg.Tick.Seconds() * math.Sqrt(cfg.Tick.Seconds())
	// Per-tick diffusion stddev in bins.
	sigmaBins := sigmaPkts / t.lambdaStep
	if sigmaBins < 0.5 {
		sigmaBins = 0.5
	}
	radius := int(3*sigmaBins) + 1
	t.kern = make([]float64, radius+1)
	t.tail = make([]float64, radius+1)
	ksum := -1.0 // the centre tap, exp(0), is counted once, not twice
	for k := range t.kern {
		t.kern[k] = math.Exp(-float64(k*k) / (2 * sigmaBins * sigmaBins))
		ksum += 2 * t.kern[k]
	}
	var tail float64
	for k := radius; k >= 0; k-- {
		t.kern[k] /= ksum
		tail += t.kern[k]
		t.tail[k] = tail
	}
	lastTables.Store(t)
	return t
}

// Sprout is the controller state. It implements cc.Controller.
type Sprout struct {
	*tables

	// belief[i] is the probability that the link delivers lambda(i)
	// packets per tick.
	belief []float64
	// next is diffuse's output buffer, rebuilt from nothing on every use.
	next []float64
	// ahead is the belief diffused one tick on: the first level of the
	// forecast and, while aheadOK, exactly what the next Tick's diffusion
	// of belief would produce, so that Tick swaps it in instead. Nothing but
	// OnTimeout and a checkpoint load touches belief between ticks; both clear aheadOK.
	ahead   []float64
	aheadOK bool
	// hint is the percentile bin of the deepest forecast level last tick,
	// where this tick's prefixes start from. It only decides how much is
	// computed up front, never a value.
	hint int
	// spill is forecast's scratch for a Config whose deeper levels do not
	// fit its stack buffer; nil until such a controller first ticks.
	spill *levels

	arrivals int // acks observed in the current tick
	window   int // cautious cumulative forecast, in packets

	// Saturation detection: when RTTs sit near the minimum the link was not
	// the constraint, so an arrival count only lower-bounds λ (censored
	// observation). The receiver-side original knows idle time directly;
	// sender-side, queueing delay is the signal.
	rttMin     time.Duration
	rttSumTick time.Duration
	rttCntTick int
	srtt       time.Duration
}

var _ cc.Controller = (*Sprout)(nil)

// New returns a Sprout controller; it panics on an invalid config.
func New(cfg Config) *Sprout {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	s := &Sprout{
		tables: tablesFor(cfg),
		belief: make([]float64, cfg.Bins),
		next:   make([]float64, cfg.Bins),
		ahead:  make([]float64, cfg.Bins),
	}
	s.resetBelief()
	// A modest initial window lets the first ticks gather observations.
	s.window = 4
	return s
}

func (s *Sprout) resetBelief() {
	u := 1 / float64(len(s.belief))
	for i := range s.belief {
		s.belief[i] = u
	}
	s.aheadOK = false
}

// lambda returns the packets-per-tick value of bin i.
func (s *Sprout) lambda(i int) float64 { return float64(i) * s.lambdaStep }

// Name implements cc.Controller.
func (s *Sprout) Name() string { return "sprout" }

// TickInterval implements cc.Controller.
func (s *Sprout) TickInterval() time.Duration { return s.cfg.Tick }

// OnAck implements cc.Controller: each acknowledgement is one observed
// delivery for the current tick's Poisson update.
func (s *Sprout) OnAck(now time.Duration, ack cc.AckSample) {
	s.arrivals++
	if ack.RTT > 0 {
		if s.rttMin == 0 || ack.RTT < s.rttMin {
			s.rttMin = ack.RTT
		}
		s.rttSumTick += ack.RTT
		s.rttCntTick++
		if s.srtt == 0 {
			s.srtt = ack.RTT
		} else {
			s.srtt = (7*s.srtt + ack.RTT) / 8
		}
	}
}

// saturatedTick reports whether the just-finished tick's RTTs show queueing,
// i.e. deliveries were limited by the link rather than by our own window.
func (s *Sprout) saturatedTick() bool {
	if s.rttCntTick == 0 || s.rttMin == 0 {
		return false
	}
	avg := s.rttSumTick / time.Duration(s.rttCntTick)
	slack := s.rttMin / 5
	if slack < 2*time.Millisecond {
		slack = 2 * time.Millisecond
	}
	return avg > s.rttMin+slack
}

// OnLoss implements cc.Controller. Sprout is not loss-driven; stochastic
// losses are absorbed by the delivery model.
func (s *Sprout) OnLoss(time.Duration, cc.LossEvent) {}

// OnTimeout implements cc.Controller: a total stall invalidates the belief.
func (s *Sprout) OnTimeout(time.Duration) {
	s.resetBelief()
	s.window = 1
}

// Tick implements cc.Controller: evolve, observe, forecast.
func (s *Sprout) Tick(now time.Duration) {
	if s.aheadOK {
		s.belief, s.ahead = s.ahead, s.belief
	} else {
		s.diffuse(s.belief)
	}
	s.observe(s.arrivals, s.saturatedTick())
	s.arrivals = 0
	s.rttSumTick, s.rttCntTick = 0, 0
	s.window = s.forecast()
}

// diffuse applies one tick of Brownian evolution plus the escape process to
// d in place. Mass that would move past either end stays on the end bin.
//
// It gathers: output bin j sums kern[|i-j|]*d[i] over the sources i within
// radius that exist, and the two end bins take, through tail, everything any
// bin sends at or past them. No step assumes that 2·radius+1 fits in len(d).
func (s *Sprout) diffuse(d []float64) {
	n, r := len(d), len(s.kern)-1
	kern, out := s.kern, s.next[:n]

	var lo, hi float64
	for i := 0; i <= r && i < n; i++ {
		lo += s.tail[i] * d[i]
		hi += s.tail[i] * d[n-1-i]
	}
	out[0], out[n-1] = lo, hi
	sum := lo + hi

	// Bins nearer than radius to an end. Bin j and its mirror image m have
	// the same shape — j taps toward their own end, min(r, m) inward — so the
	// pair runs as four independent chains. With a kernel wider than half of
	// d, the pairs cover every bin and meet at the middle one (j == m).
	j := 1
	for ; j < r && j <= n-1-j; j++ {
		m := n - 1 - j
		a, b := kern[0]*d[j], kern[0]*d[m]
		for k := 1; k <= j; k++ {
			a += kern[k] * d[j-k]
			b += kern[k] * d[m+k]
		}
		var ai, bi float64
		for k := min(r, m); k >= 1; k-- {
			ai += kern[k] * d[j+k]
			bi += kern[k] * d[m-k]
		}
		out[j], out[m] = a+ai, b+bi
		sum += out[j]
		if m != j {
			sum += out[m]
		}
	}
	// Bins with the full stencil: the symmetric taps fold into one multiply,
	// kern[k]*(d[j-k]+d[j+k]), eight bins at a time so that the additions form
	// eight independent chains; then what is left, one bin at a time.
	for ; j+r+7 < n; j += 8 {
		c := d[j : j+8]
		a0, a1, a2, a3 := kern[0]*c[0], kern[0]*c[1], kern[0]*c[2], kern[0]*c[3]
		a4, a5, a6, a7 := kern[0]*c[4], kern[0]*c[5], kern[0]*c[6], kern[0]*c[7]
		for k := 1; k <= r; k++ {
			w, below, above := kern[k], d[j-k:j-k+8], d[j+k:j+k+8]
			a0 += w * (below[0] + above[0])
			a1 += w * (below[1] + above[1])
			a2 += w * (below[2] + above[2])
			a3 += w * (below[3] + above[3])
			a4 += w * (below[4] + above[4])
			a5 += w * (below[5] + above[5])
			a6 += w * (below[6] + above[6])
			a7 += w * (below[7] + above[7])
		}
		o := out[j : j+8]
		o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7] = a0, a1, a2, a3, a4, a5, a6, a7
		sum += ((a0 + a1) + (a2 + a3)) + ((a4 + a5) + (a6 + a7))
	}
	for ; j+r < n; j++ {
		a := kern[0] * d[j]
		for k := 1; k <= r; k++ {
			a += kern[k] * (d[j-k] + d[j+k])
		}
		out[j] = a
		sum += a
	}

	// Escape mix and renormalisation in one pass: the mixed distribution
	// totals (1-esc)*sum + esc, so scale both terms by its reciprocal.
	esc := s.cfg.EscapeProb
	inv := 1 / ((1-esc)*sum + esc)
	keep, u := (1-esc)*inv, esc/float64(n)*inv
	for i, p := range out {
		d[i] = p*keep + u
	}
}

// diffusePrefix writes bins from…to of diffuse(d) into out without touching
// d, which must hold bins 0…min(to+r, len(d)-1). Each bin sums its taps in
// diffuse's order; the one difference is the escape mix, which takes the
// stencil's total as the 1 it conserves instead of adding up bins that were
// never computed, so a bin is within a few ulp of diffuse's.
func (s *Sprout) diffusePrefix(out, d []float64, from, to int) {
	n, r := len(d), len(s.kern)-1
	kern := s.kern
	esc := s.cfg.EscapeProb
	keep, u := 1-esc, esc/float64(n)

	j := from
	if j == 0 {
		var lo float64
		for i := 0; i <= r && i < n; i++ {
			lo += s.tail[i] * d[i]
		}
		out[0] = lo*keep + u
		j = 1
	}
	// Bins nearer than radius to the low end, or below the middle of a d
	// narrower than the kernel.
	for ; j <= to && j < r && j <= n-1-j; j++ {
		a := kern[0] * d[j]
		for k := 1; k <= j; k++ {
			a += kern[k] * d[j-k]
		}
		var ai float64
		for k := min(r, n-1-j); k >= 1; k-- {
			ai += kern[k] * d[j+k]
		}
		out[j] = (a+ai)*keep + u
	}
	// Bins with the full stencil, eight at a time and then singly.
	for ; j+7 <= to && j+r+7 < n; j += 8 {
		c := d[j : j+8]
		a0, a1, a2, a3 := kern[0]*c[0], kern[0]*c[1], kern[0]*c[2], kern[0]*c[3]
		a4, a5, a6, a7 := kern[0]*c[4], kern[0]*c[5], kern[0]*c[6], kern[0]*c[7]
		for k := 1; k <= r; k++ {
			w, below, above := kern[k], d[j-k:j-k+8], d[j+k:j+k+8]
			a0 += w * (below[0] + above[0])
			a1 += w * (below[1] + above[1])
			a2 += w * (below[2] + above[2])
			a3 += w * (below[3] + above[3])
			a4 += w * (below[4] + above[4])
			a5 += w * (below[5] + above[5])
			a6 += w * (below[6] + above[6])
			a7 += w * (below[7] + above[7])
		}
		o := out[j : j+8]
		o[0], o[1], o[2], o[3] = a0*keep+u, a1*keep+u, a2*keep+u, a3*keep+u
		o[4], o[5], o[6], o[7] = a4*keep+u, a5*keep+u, a6*keep+u, a7*keep+u
	}
	for ; j <= to && j+r < n; j++ {
		a := kern[0] * d[j]
		for k := 1; k <= r; k++ {
			a += kern[k] * (d[j-k] + d[j+k])
		}
		out[j] = a*keep + u
	}
	// Bins nearer than radius to the high end, mirror images of the low ones.
	for ; j <= to && j < n-1; j++ {
		b := kern[0] * d[j]
		for k := 1; k <= n-1-j; k++ {
			b += kern[k] * d[j+k]
		}
		var bi float64
		for k := min(r, j); k >= 1; k-- {
			bi += kern[k] * d[j-k]
		}
		out[j] = (b+bi)*keep + u
	}
	if j <= to {
		var hi float64
		for i := 0; i <= r && i < n; i++ {
			hi += s.tail[i] * d[n-1-i]
		}
		out[n-1] = hi*keep + u
	}
}

// observe folds the tick's arrival count into the belief. When the link was
// saturated, k arrivals is an exact Poisson observation of λ. Otherwise the
// observation is censored: the link delivered everything offered, so k only
// lower-bounds capacity and the likelihood is the survival P(Poisson(λ) ≥ k).
// Without this distinction the sender's own small window would masquerade as
// evidence of a slow link and the forecast could never grow.
func (s *Sprout) observe(k int, saturated bool) {
	var total float64
	switch {
	case saturated:
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
				like = math.Exp(float64(k)*s.logLam[i] - lam - lgk)
			}
			s.belief[i] *= like
			total += s.belief[i]
		}
	case k <= 0:
		// Every rate survives zero arrivals with probability exactly 1.
		for _, p := range s.belief {
			total += p
		}
	default:
		for i := range s.belief {
			s.belief[i] *= s.survival(i, k)
			total += s.belief[i]
		}
	}
	if total <= 0 || math.IsNaN(total) {
		s.resetBelief()
		return
	}
	if total == 1 {
		return
	}
	for i := range s.belief {
		s.belief[i] /= total
	}
}

// survival returns P(Poisson(λ(i)) >= k) for k ≥ 1.
func (s *Sprout) survival(i, k int) float64 {
	lam := s.lambda(i)
	if lam <= 0 {
		return 1e-12
	}
	// 1 - CDF(k-1), computed with an iterative pmf.
	pmf := s.expNeg[i]
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

// levels is forecast's scratch: the forecast distributions two and more ticks
// ahead, each computed from bin 0 only as far up as it has been read.
type levels struct {
	buf  []float64 // level h ≥ 2 is buf[(h-2)*Bins:][:Bins]
	have []int     // have[h-2] is how many bins of level h are computed
}

func (lv *levels) level(h, n int) []float64 { return lv.buf[(h-2)*n:][:n] }

// stackLevelFloats sizes the buffer forecast keeps on its stack: enough for
// the default config's four deeper levels of 128 bins.
const stackLevelFloats = 512

// forecast returns the cautious cumulative delivery forecast. The in-flight
// budget covers one RTT's worth of cautious deliveries (the amount the pipe
// holds), bounded above by the delay-control horizon: Sprout's contract is
// that everything in flight drains within ~HorizonTicks with high
// probability, so at short RTTs the window must not grow past what one RTT
// clears — otherwise the sender's rate (window/RTT) would blow through the
// modeled rate cap.
//
// The forecast reads each level only up to its percentile bin. The first
// level is diffused whole into ahead, because it is also the next tick's
// belief; the deeper ones exist only as the prefixes extend computes.
func (s *Sprout) forecast() int {
	// Effective horizon in (possibly fractional) ticks: one RTT's worth of
	// deliveries, never more than the delay-control horizon.
	eff := float64(s.cfg.HorizonTicks)
	if s.srtt > 0 {
		if rttTicks := s.srtt.Seconds() / s.cfg.Tick.Seconds(); rttTicks < eff {
			eff = rttTicks
		}
	}
	copy(s.ahead, s.belief)
	s.diffuse(s.ahead)
	s.aheadOK = true

	n := len(s.belief)
	var buf [stackLevelFloats]float64
	var have [stackLevelFloats / 8]int // Validate: Bins ≥ 8
	lv := levels{buf[:], have[:]}
	if need := (s.cfg.HorizonTicks - 1) * n; need > len(buf) && s.spill == nil {
		s.spill = &levels{make([]float64, need), make([]int, s.cfg.HorizonTicks-1)}
	}
	if s.spill != nil {
		lv = *s.spill
		clear(lv.have)
	}
	if top := int(math.Ceil(eff)); top >= 2 {
		s.extend(&lv, top, s.hint)
	}

	target := s.cfg.Percentile / 100
	var cum float64
	for h := 1; eff > 0; h++ {
		d, have := s.ahead, n
		if h > 1 {
			d, have = lv.level(h, n), lv.have[h-2]
		}
		// i is the first bin at which level h's running sum reaches target.
		var acc float64
		i := 0
		for ; i < n-1; i++ {
			if i >= have {
				s.extend(&lv, h, i)
				have = lv.have[h-2]
			}
			if acc += d[i]; acc >= target {
				break
			}
		}
		s.hint = i
		p := s.lambda(i)
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

// extend computes level h through bin m at least, and first as much of the
// levels below it as that takes: one diffusion reaches radius bins up.
func (s *Sprout) extend(lv *levels, h, m int) {
	n, r := len(s.belief), len(s.kern)-1
	from := lv.have[h-2]
	if m < from {
		return
	}
	// Full-stencil bins come eight at a time from bin r on, as in diffuse:
	// finish the block m falls in.
	if m >= r {
		if end := r + (m-r)&^7 + 7; end+r < n {
			m = end
		}
	}
	d := s.ahead
	if h > 2 {
		s.extend(lv, h-1, min(m+r, n-1))
		d = lv.level(h-1, n)
	}
	s.diffusePrefix(lv.level(h, n), d, from, m)
	lv.have[h-2] = m + 1
}

// Allowance implements cc.Controller.
func (s *Sprout) Allowance(_ time.Duration, inflight int) int {
	return s.window - inflight
}

// SendTag implements cc.Controller.
func (s *Sprout) SendTag() int { return s.window }

// OnSend implements cc.Controller.
func (s *Sprout) OnSend(time.Duration, int64, int) {}

// Window returns the current cautious forecast window in packets.
func (s *Sprout) Window() int { return s.window }

// BeliefMeanMbps returns the mean of the rate belief in Mbps, for
// instrumentation.
func (s *Sprout) BeliefMeanMbps() float64 {
	var mean float64
	for i, p := range s.belief {
		mean += s.lambda(i) * p
	}
	return mean * float64(s.cfg.PacketBytes) * 8 / s.cfg.Tick.Seconds() / 1e6
}
