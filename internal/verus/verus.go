// Package verus implements the Verus congestion-control protocol from
// "Adaptive Congestion Control for Unpredictable Cellular Networks"
// (Zaki et al., SIGCOMM 2015).
//
// Verus is a delay-based protocol for channels too variable to predict.
// Instead of forecasting the channel it continuously learns a delay profile
// — the relationship between sending window and end-to-end packet delay —
// and each short epoch ε moves a delay target D_est up or down by small
// steps, then reads the next sending window off the profile:
//
//	W(t+1) = f(d(t) + δ(t))            (paper Eq. 1)
//
// The four components of §4 map to this package as follows: the Delay
// Estimator is the per-epoch max-delay EWMA and ΔD computation in Tick
// (Eq. 2, 3); the Delay Profiler is the delayProfile type (Fig. 5); the
// Window Estimator is the Eq. 4 target update plus the Eq. 5 epoch quota;
// and the Loss Handler is the multiplicative decrease of Eq. 6 with the
// loss-recovery phase of §4/§5.
//
// The type is a pure state machine implementing cc.Controller, so the same
// code runs in the discrete-event simulator and in the real UDP transport.
package verus

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"repro/internal/cc"
	"repro/internal/obs"
)

// Config holds the protocol parameters. Defaults follow §5.3 of the paper.
type Config struct {
	// Epoch is ε, the interval at which Verus re-estimates how many packets
	// to send. The paper finds 5 ms tracks fast fading well.
	Epoch time.Duration
	// ProfileUpdateEvery is the spline re-interpolation interval (1 s in
	// the paper: shorter is needlessly aggressive, longer misses slow
	// fading).
	ProfileUpdateEvery time.Duration
	// Delta1 is the restrictive decrement applied to the delay target when
	// delay increased this epoch (1 ms in the paper).
	Delta1 time.Duration
	// Delta2 is the aggressive step: the increment when delay decreased,
	// and the decrement when the delay budget R is exceeded (2 ms).
	Delta2 time.Duration
	// R is the maximum tolerable ratio D_max/D_min; it tunes the
	// throughput/delay trade-off (2, 4, or 6 in the paper's evaluation).
	R float64
	// AlphaMaxDelay is the EWMA history weight for the per-epoch maximum
	// delay (Eq. 2's α).
	AlphaMaxDelay float64
	// AlphaProfile is the EWMA history weight for delay-profile point
	// updates (§5.1).
	AlphaProfile float64
	// SlowStartExitN ends slow start when the observed delay exceeds
	// N × D_min (the paper suggests N = 15).
	SlowStartExitN float64
	// MultDecrease is M in Eq. 6, the multiplicative decrease applied to
	// the window of the lost packet. The paper does not publish a value;
	// 0.5 (TCP-like) is the default here.
	MultDecrease float64
	// MaxWindow is a safety cap on the sending window, in packets.
	MaxWindow int
	// GrowthCap bounds how far a profile lookup may grow the window in one
	// epoch, as a multiplicative factor on the current window. Exploration
	// beyond the observed range rides the spline's linear extrapolation;
	// compounding per 5 ms epoch, even 3%% covers two decades per second,
	// while keeping the overshoot within one feedback delay small.
	GrowthCap float64
	// InflightCap bounds outstanding packets at InflightCap × W so that a
	// stalled channel cannot accumulate unbounded in-flight data before the
	// RTO fires.
	InflightCap float64
	// DMinWindow is the rolling horizon over which the minimum delay D_min
	// is tracked. A finite horizon lets the floor rise when the network's
	// delay floor rises (competing traffic, path change).
	DMinWindow time.Duration
	// ProfileStaleAfter drops delay-profile points that have not been
	// refreshed within this horizon (see delayProfile). 0 disables aging.
	ProfileStaleAfter time.Duration
	// StaticProfile freezes the delay profile after its first
	// interpolation — the ablation of paper Fig. 15.
	StaticProfile bool
	// RelearnTimeouts, when positive, discards the learned delay profile
	// and delay floor after this many consecutive timeouts with no
	// intervening ack — the signature of a blackout (§4.2). Every knot and
	// the D_min floor describe the pre-outage bearer; re-learning from
	// scratch beats reading windows off a curve for a channel that no
	// longer exists. 0 (the default) keeps the profile across timeouts;
	// TestRelearnAfterConsecutiveTimeouts pins the wipe.
	RelearnTimeouts int
	// TimeoutEpochs, when set, opens a timeout epoch at each RTO: acks
	// inferred to have been sent before the most recent timeout (send time
	// ≈ now − RTT) are discarded rather than folded into the estimators.
	// After an outage or handover the network bursts out exactly such
	// ghosts — packets queued before the stall whose delays say nothing
	// about the recovered channel — and without the epoch check they both
	// poison the profile and double-drive the restarted slow start. Off by
	// default; TestTimeoutEpochFiltersStaleAcks pins the filter.
	TimeoutEpochs bool
}

// DefaultConfig returns the paper's parameter settings with R = 2 (the value
// the paper uses "unless otherwise stated").
func DefaultConfig() Config {
	return Config{
		Epoch:              5 * time.Millisecond,
		ProfileUpdateEvery: time.Second,
		Delta1:             time.Millisecond,
		Delta2:             2 * time.Millisecond,
		R:                  2,
		AlphaMaxDelay:      0.875,
		AlphaProfile:       0.875,
		SlowStartExitN:     15,
		MultDecrease:       0.5,
		MaxWindow:          100_000,
		GrowthCap:          1.03,
		InflightCap:        1.25,
		DMinWindow:         120 * time.Second,
		ProfileStaleAfter:  10 * time.Second,
	}
}

// ResilientConfig returns DefaultConfig with the §4.2 recovery behaviors
// enabled: timeout-epoch ack filtering and profile re-learning after two
// consecutive timeouts. This is the configuration the fault scenarios and
// the chaos suite run.
func ResilientConfig() Config {
	cfg := DefaultConfig()
	cfg.RelearnTimeouts = 2
	cfg.TimeoutEpochs = true
	return cfg
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Epoch <= 0:
		return fmt.Errorf("verus: epoch must be positive, got %v", c.Epoch)
	case c.ProfileUpdateEvery < c.Epoch:
		return fmt.Errorf("verus: profile update interval %v shorter than epoch %v", c.ProfileUpdateEvery, c.Epoch)
	case c.Delta1 <= 0 || c.Delta2 <= 0:
		return fmt.Errorf("verus: deltas must be positive")
	case c.Delta1 > c.Delta2:
		return fmt.Errorf("verus: δ1 (%v) must not exceed δ2 (%v), per §5.3", c.Delta1, c.Delta2)
	case c.R <= 1:
		return fmt.Errorf("verus: R must exceed 1, got %v", c.R)
	case c.AlphaMaxDelay <= 0 || c.AlphaMaxDelay > 1:
		return fmt.Errorf("verus: αₘₐₓ must be in (0,1], got %v", c.AlphaMaxDelay)
	case c.AlphaProfile <= 0 || c.AlphaProfile > 1:
		return fmt.Errorf("verus: α_profile must be in (0,1], got %v", c.AlphaProfile)
	case c.SlowStartExitN <= 1:
		return fmt.Errorf("verus: slow-start exit multiple must exceed 1")
	case c.MultDecrease <= 0 || c.MultDecrease >= 1:
		return fmt.Errorf("verus: multiplicative decrease must be in (0,1), got %v", c.MultDecrease)
	case c.MaxWindow < 1:
		return fmt.Errorf("verus: max window must be >= 1")
	case c.GrowthCap <= 1:
		return fmt.Errorf("verus: growth cap must exceed 1")
	case c.InflightCap < 1:
		return fmt.Errorf("verus: inflight cap must be >= 1")
	case c.DMinWindow < 2*c.Epoch:
		return fmt.Errorf("verus: D_min window must cover at least two epochs")
	case c.RelearnTimeouts < 0:
		return fmt.Errorf("verus: relearn-timeouts threshold must be >= 0, got %d", c.RelearnTimeouts)
	}
	return nil
}

// state is the protocol phase.
type state int

const (
	stateSlowStart state = iota
	stateNormal
	stateRecovery
)

func (s state) String() string {
	switch s {
	case stateSlowStart:
		return "slow-start"
	case stateNormal:
		return "normal"
	default:
		return "loss-recovery"
	}
}

// Verus is the protocol state machine. It implements cc.Controller and must
// be driven from a single goroutine.
type Verus struct {
	cfg Config

	st      state
	profile *delayProfile

	// Delay estimator state (Eq. 2/3). Delays in seconds.
	epochMax   float64 // max delay observed in the current epoch
	haveSample bool    // any delay sample this epoch?
	dMax       float64 // EWMA'd per-epoch maximum delay (D_max,i)
	dMaxPrev   float64 // previous epoch's value, for ΔD
	dMaxPrimed bool
	dMin       float64 // rolling-window minimum delay (D_min)
	dEst       float64 // current delay target (D_est,i)

	// dMin is a rolling minimum over two half-window buckets so it can rise
	// again when the floor changes — e.g. when competing flows impose a
	// standing queue the all-time minimum would never reflect (the paper
	// only says "the minimum delay experienced by Verus"; an all-time
	// minimum starves the flow against loss-based competitors because
	// Eq. 4's ratio case then never releases).
	dMinBuckets  [2]float64
	dMinTicks    int
	ticksPerDMin int

	// Window state.
	w     float64 // current sending window W_i (packets)
	quota float64 // packets still allowed in the current epoch
	ssW   float64 // slow-start window
	ssCap float64 // restarted slow starts exit at this window (ssthresh analogue)
	srtt  time.Duration

	// Loss recovery (Eq. 6 and §4 "Loss Handler").
	wLossExit int // recovery ends when an ack's send tag ≤ current window

	// Profile refit pacing: refit once per ProfileUpdateEvery of epoch
	// ticks. wAtRefit bounds how far the window may explore between refits:
	// lookups in between run against a stale curve, so unbounded per-epoch
	// compounding would outrun the feedback entirely.
	ticksPerRefit int
	tickCount     int
	wAtRefit      float64
	maxWAtRefit   int
	frozen        bool // StaticProfile: profile locked after first fit

	// epochNow is a monotonically increasing epoch counter used to stamp
	// delay-profile points for staleness aging.
	epochNow int64

	// Timeout-epoch recovery state (§4.2, RelearnTimeouts/TimeoutEpochs).
	consecTimeouts int           // RTOs since the last fresh ack
	timeoutAt      time.Duration // when the open timeout epoch began
	timeoutOpen    bool          // a timeout epoch is open

	// Telemetry. Counters are obs instruments so Observe can register them
	// with a metrics registry without copying; Stats remains a thin
	// adapter reading the same instruments.
	epochs    obs.Counter
	losses    obs.Counter
	timeouts  obs.Counter
	refits    obs.Counter
	staleAcks obs.Counter
	relearns  obs.Counter

	// Observability (nil unless Observe attached one). Purely passive:
	// events carry copies of estimator state; nothing reads back.
	o       *obs.Observer
	obsRun  int64
	obsFlow int32
	gWindow *obs.Gauge
	gTarget *obs.Gauge
}

var _ cc.Controller = (*Verus)(nil)

// New returns a Verus controller with the given configuration; it panics on
// an invalid one (catch with Config.Validate first if the config is
// user-supplied).
func New(cfg Config) *Verus {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	v := &Verus{
		cfg:           cfg,
		st:            stateSlowStart,
		profile:       newDelayProfile(cfg.AlphaProfile),
		ssW:           1,
		ssCap:         math.Inf(1),
		w:             1,
		dMin:          math.Inf(1),
		ticksPerRefit: int(cfg.ProfileUpdateEvery / cfg.Epoch),
		ticksPerDMin:  int(cfg.DMinWindow / (2 * cfg.Epoch)),
	}
	if v.ticksPerRefit < 1 {
		v.ticksPerRefit = 1
	}
	if v.ticksPerDMin < 1 {
		v.ticksPerDMin = 1
	}
	v.dMinBuckets[0] = math.Inf(1)
	v.dMinBuckets[1] = math.Inf(1)
	if cfg.ProfileStaleAfter > 0 {
		v.profile.staleAfter = int64(cfg.ProfileStaleAfter / cfg.Epoch)
	}
	return v
}

// Name implements cc.Controller.
func (v *Verus) Name() string { return fmt.Sprintf("verus(R=%g)", v.cfg.R) }

// Window returns the current sending window estimate in packets.
func (v *Verus) Window() float64 {
	if v.st == stateSlowStart {
		return v.ssW
	}
	return v.w
}

// TickInterval implements cc.Controller: Verus is epoch-driven.
func (v *Verus) TickInterval() time.Duration { return v.cfg.Epoch }

// OnAck implements cc.Controller.
func (v *Verus) OnAck(now time.Duration, ack cc.AckSample) {
	d := ack.RTT.Seconds()
	if d <= 0 {
		return
	}
	// Timeout-epoch filter (§4.2): an ack whose packet left before the most
	// recent RTO is a ghost of the pre-outage channel — typically the
	// burst-release after a handover or blackout. Its delay describes a
	// queue that has since been declared dead; folding it into D_min, the
	// estimators, or the profile poisons all three, and letting it clock
	// the restarted slow start double-counts data the timeout already wrote
	// off.
	if v.cfg.TimeoutEpochs && v.timeoutOpen {
		if now-ack.RTT < v.timeoutAt {
			v.staleAcks.Inc()
			return
		}
		v.timeoutOpen = false
		if v.o != nil {
			v.o.Emit(&obs.Event{At: now, Kind: obs.KindVerusTimeoutEpoch, Flow: v.obsFlow, Run: v.obsRun,
				Str: "close", V0: float64(v.staleAcks.Value())})
		}
	}
	v.consecTimeouts = 0
	if d < v.dMinBuckets[1] {
		v.dMinBuckets[1] = d
	}
	if d < v.dMin {
		v.dMin = d
	}
	if d > v.epochMax {
		v.epochMax = d
	}
	v.haveSample = true
	if v.srtt == 0 {
		v.srtt = ack.RTT
	} else {
		v.srtt = (7*v.srtt + ack.RTT) / 8
	}

	// The profile reflects what can be sent without losses, so it is not
	// updated during loss recovery (§4): post-loss packets see drained
	// buffers and would bias the curve down. A frozen (static) profile is
	// never updated after its first fit.
	if v.st != stateRecovery && !v.frozen {
		v.profile.update(ack.SentWindow, d, v.epochNow)
	}

	switch v.st {
	case stateSlowStart:
		v.ssW++
		exceedsDelay := v.dMin > 0 && !math.IsInf(v.dMin, 1) && d > v.cfg.SlowStartExitN*v.dMin
		if exceedsDelay || v.ssW >= v.ssCap {
			v.exitSlowStart(now, d)
		}
	case stateRecovery:
		// TCP-like additive growth while recovering: W += 1/W per ack.
		if v.w < float64(v.cfg.MaxWindow) {
			v.w += 1 / math.Max(v.w, 1)
		}
		// Exit once packets sent after the decrease are being acked.
		if ack.SentWindow <= v.wLossExit || ack.SentWindow <= int(v.w+0.5) {
			v.exitRecovery(now)
		}
	}
}

// exitSlowStart transitions to normal operation: the tuples recorded during
// slow start become the initial delay profile (§5.1).
func (v *Verus) exitSlowStart(now time.Duration, currentDelay float64) {
	v.profile.refit(v.epochNow)
	if v.cfg.StaticProfile && v.profile.ready() {
		v.frozen = true
	}
	v.st = stateNormal
	v.w = v.ssW
	// Anchor the target at the observed delay, but never above the delay
	// budget: a slow start that overshot into a loaded queue must not spend
	// seconds stepping its target back down.
	v.dEst = math.Min(math.Max(currentDelay, v.dMin), v.ceiling())
	v.dMax = currentDelay
	v.dMaxPrev = currentDelay
	v.dMaxPrimed = true
	v.quota = 0 // next epoch computes the first S
	v.emitState(now)
}

// exitRecovery resumes delay-profile control after a loss episode. The delay
// target is re-anchored to what the profile predicts for the post-decrease
// window.
func (v *Verus) exitRecovery(now time.Duration) {
	v.st = stateNormal
	if v.profile.ready() {
		if d := v.profile.delayAt(v.w); d > 0 {
			v.dEst = math.Min(math.Max(d, v.dMin), v.ceiling())
		}
	}
	v.quota = 0
	v.emitState(now)
}

// emitState records a protocol phase transition when tracing is attached.
func (v *Verus) emitState(now time.Duration) {
	if v.o == nil {
		return
	}
	v.o.Emit(&obs.Event{At: now, Kind: obs.KindVerusState, Flow: v.obsFlow, Run: v.obsRun,
		Str: v.st.String(), V0: v.Window(), V1: v.dEst})
}

// ceiling returns the delay budget: R × D_min plus one aggressive step, the
// level at which Eq. 4's ratio case pushes back.
func (v *Verus) ceiling() float64 {
	if math.IsInf(v.dMin, 1) {
		return math.Inf(1)
	}
	return v.cfg.R*v.dMin + v.cfg.Delta2.Seconds()
}

// OnLoss implements cc.Controller (Eq. 6). Further losses during recovery
// are absorbed by the ongoing episode, like TCP NewReno's one-reduction-per-
// window rule.
func (v *Verus) OnLoss(now time.Duration, loss cc.LossEvent) {
	if v.st == stateRecovery {
		return
	}
	v.losses.Inc()
	wLoss := float64(loss.SentWindow)
	if wLoss <= 0 {
		wLoss = v.Window()
	}
	v.w = math.Max(1, v.cfg.MultDecrease*wLoss)
	v.wLossExit = int(v.w + 0.5)
	v.st = stateRecovery
	v.quota = 0
	v.emitState(now)
}

// OnTimeout implements cc.Controller. The paper: "Verus also uses a timeout
// mechanism similar to TCP in case all packets are lost" — the window
// collapses and the protocol re-probes with slow start (keeping the learned
// profile and D_min).
func (v *Verus) OnTimeout(now time.Duration) {
	v.timeouts.Inc()
	v.consecTimeouts++
	if v.cfg.TimeoutEpochs {
		v.timeoutAt = now
		v.timeoutOpen = true
	}
	// Restarted slow starts must not blast exponentially back into a loaded
	// network: like TCP's ssthresh, exit at half the pre-timeout window.
	v.ssCap = math.Max(2, v.cfg.MultDecrease*v.Window())
	v.st = stateSlowStart
	v.ssW = 1
	v.w = 1
	v.quota = 0
	v.epochMax = 0
	v.haveSample = false
	if v.o != nil {
		v.o.Emit(&obs.Event{At: now, Kind: obs.KindVerusTimeout, Flow: v.obsFlow, Run: v.obsRun,
			V0: float64(v.consecTimeouts), V1: v.ssCap})
		if v.cfg.TimeoutEpochs {
			v.o.Emit(&obs.Event{At: now, Kind: obs.KindVerusTimeoutEpoch, Flow: v.obsFlow, Run: v.obsRun,
				Str: "open", V0: float64(v.staleAcks.Value())})
		}
	}
	if v.cfg.RelearnTimeouts > 0 && v.consecTimeouts >= v.cfg.RelearnTimeouts {
		v.relearn(now)
	}
}

// relearn discards everything Verus knows about the channel — the delay
// profile, the D_min floor, the delay estimator state — and starts over, as
// §4.2 prescribes after a blackout: repeated RTOs with no ack in between
// mean the bearer the knots were learned on is gone, and a window read off
// that curve is an arbitrary number. The restarted slow start re-probes the
// recovered channel from scratch.
func (v *Verus) relearn(now time.Duration) {
	v.relearns.Inc()
	if v.o != nil {
		v.o.Emit(&obs.Event{At: now, Kind: obs.KindVerusRelearn, Flow: v.obsFlow, Run: v.obsRun,
			V0: float64(v.relearns.Value())})
	}
	v.consecTimeouts = 0
	v.profile.reset()
	v.frozen = false // a StaticProfile refreezes after its first new fit
	v.dMin = math.Inf(1)
	v.dMinBuckets[0] = math.Inf(1)
	v.dMinBuckets[1] = math.Inf(1)
	v.dMinTicks = 0
	v.dMax = 0
	v.dMaxPrev = 0
	v.dMaxPrimed = false
	v.dEst = 0
	v.wAtRefit = 0
	v.maxWAtRefit = 0
	// With no floor, a restarted slow start cannot exit on the N×D_min
	// test; let it probe to the ssthresh cap set above.
}

// Tick implements cc.Controller: the per-epoch estimation loop of §4.
func (v *Verus) Tick(now time.Duration) {
	v.epochNow++
	v.dMinTicks++
	if v.dMinTicks >= v.ticksPerDMin {
		v.dMinTicks = 0
		v.rotateDMin()
	}
	v.tickCount++
	// Refit on the paper's 1 s cadence, and additionally whenever the
	// explored window range has outgrown the last interpolation by 50% —
	// exploration against a stale curve is how feedback gets outrun.
	if v.tickCount >= v.ticksPerRefit || v.profile.maxW > v.maxWAtRefit+v.maxWAtRefit/2+1 {
		v.tickCount = 0
		v.wAtRefit = v.w
		v.maxWAtRefit = v.profile.maxW
		if !v.frozen {
			v.profile.refit(v.epochNow)
			v.refits.Inc()
			if v.o != nil {
				v.o.Emit(&obs.Event{At: now, Kind: obs.KindVerusRefit, Flow: v.obsFlow, Run: v.obsRun,
					V0: float64(v.profile.numPoints()), V1: float64(v.profile.maxW)})
			}
			if v.cfg.StaticProfile && v.profile.ready() {
				v.frozen = true
			}
		}
	}
	if v.st != stateNormal {
		// Slow start and recovery are ack-clocked; epochs do not drive them.
		v.epochMax = 0
		v.haveSample = false
		return
	}
	v.epochs.Inc()

	// Delay Estimator (Eq. 2, 3). With no samples this epoch there is no
	// new information; carry the previous estimate and leave the target
	// alone rather than inventing an ΔD of zero and growing blindly.
	if v.haveSample {
		if v.dMaxPrimed {
			v.dMax = v.cfg.AlphaMaxDelay*v.dMax + (1-v.cfg.AlphaMaxDelay)*v.epochMax
		} else {
			v.dMax = v.epochMax
			v.dMaxPrimed = true
		}
		deltaD := v.dMax - v.dMaxPrev
		v.dMaxPrev = v.dMax
		v.updateTarget(deltaD)
	}
	v.epochMax = 0
	v.haveSample = false

	// Window Estimator: W_{i+1} from the delay profile (Eq. 1/Fig. 5), then
	// the epoch send quota S_{i+1} (Eq. 5).
	if v.profile.ready() {
		hi := math.Max(v.w*v.cfg.GrowthCap+1, 8)
		// Between refits the curve is stale: bound total exploration since
		// the last refit, or compounding would outrun the re-interpolation
		// feedback by orders of magnitude. Range growth forces refits (see
		// Tick), so this allows roughly one doubling per refresh.
		if v.wAtRefit > 0 {
			hi = math.Min(hi, math.Max(2*v.wAtRefit, 8))
		}
		hi = math.Min(hi, float64(v.cfg.MaxWindow))
		wNext, _ := v.profile.lookup(v.dEst, hi)
		v.setQuota(wNext)
	} else {
		// No profile yet (e.g. slow start exited on loss after very few
		// acks): keep a one-packet-per-epoch trickle so acks keep coming.
		v.quota = 1
	}
	if v.o != nil {
		v.o.Emit(&obs.Event{At: now, Kind: obs.KindVerusEpoch, Flow: v.obsFlow, Run: v.obsRun,
			V0: v.dMax, V1: v.dEst, V2: v.w, V3: v.quota})
		v.gWindow.Set(v.w)
		v.gTarget.Set(v.dEst)
	}
}

// rotateDMin advances the rolling-minimum window: the older half-bucket is
// discarded and D_min becomes the minimum over the remaining half plus new
// samples. If no samples arrived in the whole window, the previous D_min is
// kept (a silent channel should not erase the floor).
func (v *Verus) rotateDMin() {
	v.dMinBuckets[0] = v.dMinBuckets[1]
	v.dMinBuckets[1] = math.Inf(1)
	m := math.Min(v.dMinBuckets[0], v.dMinBuckets[1])
	if !math.IsInf(m, 1) {
		v.dMin = m
	}
}

// updateTarget applies Eq. 4. The floor is D_min + δ1 rather than the bare
// D_min of the paper's second case: a target exactly at the historical
// minimum is unreachable on the delay profile (every point sits above the
// minimum by construction), which would collapse the window to nothing each
// time the ratio case overshoots. One restrictive step of headroom keeps the
// lookup meaningful while preserving the floor's intent.
func (v *Verus) updateTarget(deltaD float64) {
	d1 := v.cfg.Delta1.Seconds()
	d2 := v.cfg.Delta2.Seconds()
	floor := v.dMin + d1
	switch {
	case v.dMax/v.dMin > v.cfg.R:
		v.dEst = math.Max(floor, v.dEst-d2)
	case deltaD > 0:
		v.dEst = math.Max(floor, v.dEst-d1)
	default:
		v.dEst += d2
	}
	// The target cannot meaningfully exceed the delay budget by much; keep
	// it within R×D_min plus one aggressive step so it can still trigger
	// the ratio case above.
	if c := v.ceiling(); v.dEst > c {
		v.dEst = c
	}
}

// setQuota computes S_{i+1} (Eq. 5) for the epoch that just started. S is
// fractional (with n epochs per RTT it is roughly W/n), so the fractional
// part of any unspent credit carries over; otherwise a quota below one
// packet per epoch would floor to zero sends forever. Unsent whole packets
// do not carry (they would burst after a stall).
func (v *Verus) setQuota(wNext float64) {
	n := math.Ceil(v.srtt.Seconds() / v.cfg.Epoch.Seconds())
	if n < 2 {
		n = 2
	}
	s := wNext + (2-n)/(n-1)*v.w
	if s < 0 {
		s = 0
	}
	carry := v.quota - math.Floor(v.quota)
	if carry < 0 {
		carry = 0
	}
	v.w = wNext
	v.quota = carry + s
}

// Allowance implements cc.Controller.
func (v *Verus) Allowance(now time.Duration, inflight int) int {
	switch v.st {
	case stateSlowStart:
		return int(v.ssW) - inflight
	case stateRecovery:
		return int(v.w) - inflight
	default:
		q := int(v.quota)
		cap := int(v.cfg.InflightCap*v.w) - inflight
		if cap < 0 {
			cap = 0
		}
		if q > cap {
			q = cap
		}
		return q
	}
}

// SendTag implements cc.Controller: packets are stamped with the sending
// window they belong to, so delays and losses can be attributed to it.
func (v *Verus) SendTag() int {
	w := int(v.Window() + 0.5)
	if w < 1 {
		w = 1
	}
	return w
}

// OnSend implements cc.Controller.
func (v *Verus) OnSend(now time.Duration, seq int64, inflight int) {
	if v.st == stateNormal {
		v.quota--
		if v.quota < 0 {
			v.quota = 0
		}
	}
}

// ProfileSnapshot returns the current delay-profile points and, when a curve
// exists, its interpolated values sampled at each integer window up to the
// largest observed one — the data behind paper Fig. 5 and Fig. 7b.
func (v *Verus) ProfileSnapshot() (windows []int, pointDelays []float64, curve []float64) {
	windows, pointDelays = v.profile.snapshotPoints()
	if v.profile.ready() && v.profile.maxW >= 1 {
		curve = make([]float64, v.profile.maxW)
		for w := 1; w <= v.profile.maxW; w++ {
			curve[w-1] = v.profile.delayAt(float64(w))
		}
	}
	return windows, pointDelays, curve
}

// Stats returns counters for instrumentation: epochs run, losses handled,
// timeouts, and profile refits. It is a thin adapter over the same obs
// counters Observe registers with a metrics registry.
func (v *Verus) Stats() (epochs, losses, timeouts, refits int64) {
	return v.epochs.Value(), v.losses.Value(), v.timeouts.Value(), v.refits.Value()
}

// Observe implements obs.Observable: it attaches the observer for event
// tracing and registers the telemetry counters under per-flow, per-run
// labeled series. Call before driving the controller; a nil observer (or
// never calling Observe) leaves the disabled nil-check fast path in place.
func (v *Verus) Observe(o *obs.Observer, run int64, flow int) {
	if o == nil {
		return
	}
	v.o = o
	v.obsRun = run
	v.obsFlow = int32(flow)
	label := func(name string) string {
		return obs.Labeled(name, "flow", strconv.Itoa(flow), "run", strconv.FormatInt(run, 10))
	}
	o.RegisterCounter(label("verus_epochs_total"), &v.epochs)
	o.RegisterCounter(label("verus_losses_total"), &v.losses)
	o.RegisterCounter(label("verus_timeouts_total"), &v.timeouts)
	o.RegisterCounter(label("verus_refits_total"), &v.refits)
	o.RegisterCounter(label("verus_stale_acks_total"), &v.staleAcks)
	o.RegisterCounter(label("verus_relearns_total"), &v.relearns)
	v.gWindow = o.Gauge(label("verus_window_pkts"))
	v.gTarget = o.Gauge(label("verus_delay_target_seconds"))
}
