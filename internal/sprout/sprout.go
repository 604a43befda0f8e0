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
	"fmt"
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
	case !(c.tableMB() <= 64):
		return errf(fmt.Sprintf("tables of %.0f MB exceed the 64 MB limit", c.tableMB()))
	}
	return nil
}

// maxPktPerTick is the rate cap in packets per tick: the rate of the top bin.
func (c Config) maxPktPerTick() float64 {
	return c.MaxRateMbps * 1e6 / 8 / float64(c.PacketBytes) * c.Tick.Seconds()
}

// likeRows is how many arrival counts, from 0 up, the tables hold observe's
// likelihoods for: up to twice the top bin's rate.
func (c Config) likeRows() float64 { return 2*math.Ceil(c.maxPktPerTick()) + 1 }

// tableMB is the size of the tables that all controllers of the Config share:
// (HorizonTicks−1)·Bins forecast rows of Bins+1 floats and 2·likeRows·Bins
// likelihoods.
func (c Config) tableMB() float64 {
	n := float64(c.Bins)
	return (float64(c.HorizonTicks-1)*n*(n+1) + 2*c.likeRows()*n) * 8 / (1 << 20)
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
	// likeSat[k·Bins:][:Bins] is observe's likelihood of k arrivals at each
	// bin's rate in a saturated tick, likeCens the same in a censored one,
	// for k < likeRows.
	likeSat, likeCens []float64
	// Row m = (h−2)·Bins+i of cum, cum[m·(Bins+1):][:Bins+1], holds the
	// weight of each bin of the first forecast level in level h's running sum
	// through bin i, then what the escape process adds to that sum; see
	// buildCumulative.
	cum []float64
}

// lastTables remembers the tables of the Config New saw last. A sweep builds
// all its controllers from one Config, concurrently across trials; a miss
// only costs a rebuild.
var lastTables atomic.Pointer[tables]

func tablesFor(cfg Config) *tables {
	if t := lastTables.Load(); t != nil && t.cfg == cfg {
		return t
	}
	n := cfg.Bins
	t := &tables{cfg: cfg, lambdaStep: cfg.maxPktPerTick() / float64(n-1)}
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
	rows := int(cfg.likeRows())
	t.likeSat, t.likeCens = make([]float64, rows*n), make([]float64, rows*n)
	t.likelihood(t.likeSat, 0, true)
	t.likelihood(t.likeCens, 0, false)
	t.buildCumulative()
	lastTables.Store(t)
	return t
}

// buildCumulative fills cum. One tick of diffuse maps a distribution d to
// keep·S·d + u, where S is the stencil, keep = 1−EscapeProb and u =
// EscapeProb/Bins, up to a renormalisation by 1 ± a few ulp. Level h's running
// sum through bin i is therefore w·L₁ + e, where L₁ is the first level, w =
// keep^{h−1}·(Sᵀ)^{h−1}·1_{≤i}, and e adds u·Σw' over the rows w' of bin i at
// levels 1…h−1 (level 1's row is 1_{≤i}).
//
// Each row is the row of bin i one level up pulled back through keep·Sᵀ, over
// its band only: bins more than (h−1)·radius below i weigh what they do in the
// row of the last bin, which counts every bin, and bins further above weigh 0.
// Both hold the bits a full pull-back would compute, so every row comes from
// the same operations in the same order on inputs that grow with i.
func (t *tables) buildCumulative() {
	n, r, kern := t.cfg.Bins, len(t.kern)-1, t.kern
	keep, u := 1-t.cfg.EscapeProb, t.cfg.EscapeProb/float64(n)
	t.cum = make([]float64, (t.cfg.HorizonTicks-1)*n*(n+1))
	ind := make([]float64, n+1) // level 1's row of bin i, escape 0
	for i := range n {
		ind[i] = 1
	}
	for h := 2; h <= t.cfg.HorizonTicks; h++ {
		level, span := t.cum[(h-2)*n*(n+1):], (h-1)*r
		for i := n - 1; i >= 0; i-- {
			v, row, lo := ind, level[i*(n+1):][:n+1], 0
			if h > 2 {
				v = t.cum[((h-3)*n+i)*(n+1):][:n+1]
			}
			if i < n-1 {
				lo = max(0, i-span)
				copy(row[:lo], level[(n-1)*(n+1):])
			}
			// row[j] = keep·(Sᵀv)[j]: v weighs the stencil's output bins, and
			// bin j sums those below it and those from it up in two chains.
			for j := lo; j <= min(n-1, i+span); j++ {
				var below, above float64
				if j <= r {
					below = t.tail[j] * v[0]
				}
				for b := max(1, j-r); b < j; b++ {
					below += kern[j-b] * v[b]
				}
				for b := max(1, j); b <= min(n-2, j+r); b++ {
					above += kern[b-j] * v[b]
				}
				if m := n - 1 - j; m <= r {
					above += t.tail[m] * v[n-1]
				}
				row[j] = keep * (below + above)
			}
			var sum float64
			for _, w := range v[:n] {
				sum += w
			}
			row[n] = v[n] + u*sum
			ind[i] = 0
		}
	}
}

// Sprout is the controller state. It implements cc.Controller.
type Sprout struct {
	*tables

	// belief[i] is the probability that the link delivers lambda(i)
	// packets per tick.
	belief []float64
	// next is diffuse's output buffer, rebuilt from nothing on every use, and
	// observe's likelihood row for an arrival count past the tables'.
	next []float64
	// ahead is the belief diffused one tick on: the first level of the
	// forecast and, while aheadOK, exactly what the next Tick's diffusion
	// of belief would produce, so that Tick swaps it in instead. Nothing but
	// OnTimeout and a checkpoint load touches belief between ticks; both clear aheadOK.
	ahead   []float64
	aheadOK bool

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

// New returns a Sprout controller; it panics on an invalid config. It is
// element 0 of a NewN slab of one: with the tables shared per Config, a
// controller is two allocations, itself and its rows.
func New(cfg Config) *Sprout { return &NewN(cfg, 1)[0] }

// rowsChunk bounds, in bytes, each buffer NewN carves rows from. One buffer
// for a 1000-flow metro trial is a 3 MB span, and it raised the metro
// benchmark's peak RSS by about 2 MB; 128 KB chunks, 42 controllers' rows at
// the default 128 bins, raise it by about 0.7 MB.
const rowsChunk = 128 << 10

// NewN returns n Sprout controllers built in place in one slice: the config
// is validated and its tables looked up once. Their belief, next and ahead
// rows are carved from buffers of at most rowsChunk bytes, 3·Bins floats per
// controller, each row capped at its own end so that no row can append into
// its neighbour's. It panics on an invalid config.
func NewN(cfg Config, n int) []Sprout {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	t, bins := tablesFor(cfg), cfg.Bins
	ss, per := make([]Sprout, n), max(1, rowsChunk/(3*8*bins))
	var buf []float64
	for i := range ss {
		if len(buf) == 0 {
			buf = make([]float64, 3*bins*min(per, n-i))
		}
		s := &ss[i]
		s.tables = t
		s.belief, s.next, s.ahead = buf[:bins:bins], buf[bins:2*bins:2*bins], buf[2*bins:3*bins:3*bins]
		buf = buf[3*bins:]
		s.resetBelief()
		// A modest initial window lets the first ticks gather observations.
		s.window = 4
	}
	return ss
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
func (s *Sprout) Tick(time.Duration) { s.tick(nil) }

// tick is Tick; it counts forecast's searches into sc unless sc is nil.
func (s *Sprout) tick(sc *searchCount) {
	if s.aheadOK {
		s.belief, s.ahead = s.ahead, s.belief
	} else {
		s.diffuse(s.belief, s.belief)
	}
	s.observe(s.arrivals, s.saturatedTick())
	s.arrivals = 0
	s.rttSumTick, s.rttCntTick = 0, 0
	s.window = s.forecast(sc)
}

// diffuse writes into dst one tick of Brownian evolution plus the escape
// process applied to d; dst may be d. Mass that would move past either end
// stays on the end bin.
//
// It gathers: output bin j sums kern[|i-j|]*d[i] over the sources i within
// radius that exist, and the two end bins take, through tail, everything any
// bin sends at or past them. No step assumes that 2·radius+1 fits in len(d).
func (s *Sprout) diffuse(dst, d []float64) {
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
		dst[i] = p*keep + u
	}
}

// observe folds the tick's arrival count into the belief. When the link was
// saturated, k arrivals is an exact Poisson observation of λ. Otherwise the
// observation is censored: the link delivered everything offered, so k only
// lower-bounds capacity and the likelihood is the survival P(Poisson(λ) ≥ k).
// Without this distinction the sender's own small window would masquerade as
// evidence of a slow link and the forecast could never grow.
func (s *Sprout) observe(k int, saturated bool) {
	n, like := len(s.belief), s.likeCens
	if saturated {
		like = s.likeSat
	}
	if (k+1)*n <= len(like) {
		like = like[k*n:][:n]
	} else {
		like = s.next
		s.likelihood(like, k, saturated)
	}
	var total float64
	for i, l := range like {
		s.belief[i] *= l
		total += s.belief[i]
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

// likelihood fills rows, Bins floats per row, with the likelihood of k0, k0+1,
// … arrivals at each bin's rate: the Poisson pmf if the tick was saturated,
// the survival P(Poisson(λ) ≥ k) if it was not. The survival of k+1 carries
// on the sum that gave that of k, so a row holds the bits it would alone.
func (t *tables) likelihood(rows []float64, k0 int, saturated bool) {
	n := t.cfg.Bins
	for i := 0; i < n; i++ {
		lam := float64(i) * t.lambdaStep
		// 1 - CDF(k-1), computed with an iterative pmf.
		pmf := math.Exp(-lam)
		cdf := pmf
		for j, k := 1, k0; (k-k0)*n < len(rows); k++ {
			like := 1.0 // k = 0: every rate survives it, and rate 0 delivers exactly it
			switch {
			case lam <= 0 && k != 0:
				like = 1e-12
			case saturated && lam > 0:
				lgk, _ := math.Lgamma(float64(k) + 1)
				like = math.Exp(float64(k)*math.Log(lam) - lam - lgk)
			case !saturated && k > 0:
				for ; j < k; j++ {
					pmf *= lam / float64(j)
					cdf += pmf
				}
				if like = 1 - cdf; like < 1e-12 {
					like = 1e-12
				}
			}
			rows[(k-k0)*n+i] = like
		}
	}
}

// searchCount tallies forecast's searches of the deeper levels and the
// running sums they evaluate.
type searchCount struct{ searches, evals int }

// forecast returns the cautious cumulative delivery forecast. The in-flight
// budget covers one RTT's worth of cautious deliveries (the amount the pipe
// holds), bounded above by the delay-control horizon: Sprout's contract is
// that everything in flight drains within ~HorizonTicks with high
// probability, so at short RTTs the window must not grow past what one RTT
// clears — otherwise the sender's rate (window/RTT) would blow through the
// modeled rate cap.
//
// Level 1 is diffused whole into ahead, because it is also the next tick's
// belief. The deeper levels are never formed: their running sums come from
// the tables, and each level's percentile bin is searched for from the one
// level above it.
func (s *Sprout) forecast(sc *searchCount) int {
	// Effective horizon in (possibly fractional) ticks: one RTT's worth of
	// deliveries, never more than the delay-control horizon.
	eff := float64(s.cfg.HorizonTicks)
	if s.srtt > 0 {
		if rttTicks := s.srtt.Seconds() / s.cfg.Tick.Seconds(); rttTicks < eff {
			eff = rttTicks
		}
	}
	s.diffuse(s.ahead, s.belief)
	s.aheadOK = true

	// i is the first bin at which level 1's running sum reaches target.
	target := s.cfg.Percentile / 100
	var acc float64
	i := 0
	for ; i < len(s.ahead)-1; i++ {
		if acc += s.ahead[i]; acc >= target {
			break
		}
	}
	var cum float64
	for h := 1; eff > 0; h++ {
		if h > 1 {
			i = s.percentileBin(h, i, target, sc)
		}
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

// percentileBin returns what a scan of level h ≥ 2 from bin 0 finds: the
// first bin below the last at which the running sum reaches target, or the
// last bin. It walks there from bin i. A running sum adds nonnegative terms
// in the same order for every bin, so it never decreases as the bin grows,
// and the walk ends at the same bin from any start.
func (s *Sprout) percentileBin(h, i int, target float64, sc *searchCount) int {
	if sc != nil {
		sc.searches++
	}
	last := len(s.ahead) - 1
	if i < last && s.cumulative(h, i, sc) < target {
		for i++; i < last && s.cumulative(h, i, sc) < target; i++ {
		}
		return i
	}
	for i > 0 && s.cumulative(h, i-1, sc) >= target {
		i--
	}
	return i
}

// cumulative returns level h's running sum through bin i, for h ≥ 2: its
// row of the tables dotted with level 1, over the bins the row reaches.
func (s *Sprout) cumulative(h, i int, sc *searchCount) float64 {
	if sc != nil {
		sc.evals++
	}
	n := len(s.ahead)
	row := s.cum[((h-2)*n+i)*(n+1):][:n+1]
	w := row[:min(n, i+(h-1)*(len(s.kern)-1)+1)]
	a := s.ahead[:len(w)]
	// Four chains: term j always goes to chain j mod 4, after the terms before it.
	var a0, a1, a2, a3 float64
	j := 0
	for ; j+4 <= len(w); j += 4 {
		a0 += w[j] * a[j]
		a1 += w[j+1] * a[j+1]
		a2 += w[j+2] * a[j+2]
		a3 += w[j+3] * a[j+3]
	}
	if j < len(w) {
		a0 += w[j] * a[j]
		if j+1 < len(w) {
			a1 += w[j+1] * a[j+1]
		}
		if j+2 < len(w) {
			a2 += w[j+2] * a[j+2]
		}
	}
	return ((a0 + a1) + (a2 + a3)) + row[n]
}

// Allowance implements cc.Controller.
func (s *Sprout) Allowance(_ time.Duration, inflight int) int {
	return s.window - inflight
}

// SendTag implements cc.Controller.
func (s *Sprout) SendTag() int { return s.window }

// OnSend implements cc.Controller.
func (s *Sprout) OnSend(time.Duration, int64, int) {}
