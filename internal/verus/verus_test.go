package verus

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/cc"
)

func msd(n float64) time.Duration { return time.Duration(n * float64(time.Millisecond)) }

// ack feeds one acknowledgement with the given RTT and send tag.
func ack(v *Verus, rtt time.Duration, tag int) {
	v.OnAck(0, cc.AckSample{RTT: rtt, SentWindow: tag, Bytes: 1400})
}

func TestConfigValidation(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	// Each mutation breaks one rule; want is a substring of that rule's own
	// error, so a mutation cannot pass on an earlier check.
	mutations := []struct {
		mut  func(*Config)
		want string
	}{
		{func(c *Config) { c.Epoch = 0 }, "epoch must be positive"},
		{func(c *Config) { c.ProfileUpdateEvery = c.Epoch / 2 }, "shorter than epoch"},
		{func(c *Config) { c.Delta1 = 0 }, "deltas must be positive"},
		{func(c *Config) { c.Delta2 = 0 }, "deltas must be positive"},
		{func(c *Config) { c.Delta1 = 3 * time.Millisecond }, "must not exceed δ2"},
		{func(c *Config) { c.R = 1 }, "R must exceed 1"},
		{func(c *Config) { c.Epoch, c.ProfileUpdateEvery = 61*time.Second, 61*time.Second }, "D_min window"},
	}
	for i, m := range mutations {
		c := DefaultConfig()
		m.mut(&c)
		err := c.Validate()
		if err == nil || !strings.Contains(err.Error(), m.want) {
			t.Errorf("mutation %d: Validate() = %v, want an error containing %q", i, err, m.want)
		}
	}
}

func TestNewPanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid config did not panic")
		}
	}()
	New(Config{})
}

func TestNameIncludesR(t *testing.T) {
	cfg := DefaultConfig()
	cfg.R = 6
	if got := New(cfg).Name(); got != "verus(R=6)" {
		t.Fatalf("Name = %q", got)
	}
}

func TestSlowStartGrowsPerAck(t *testing.T) {
	v := New(DefaultConfig())
	if v.st.String() != "slow-start" {
		t.Fatalf("initial state %q", v.st.String())
	}
	if got := v.Allowance(0, 0); got != 1 {
		t.Fatalf("initial allowance = %d, want 1", got)
	}
	for i := 0; i < 10; i++ {
		ack(v, 20*time.Millisecond, 1+i)
	}
	// ssW = 1 + 10 acks = 11 → exponential growth as acks double.
	if got := v.Allowance(0, 0); got != 11 {
		t.Fatalf("allowance after 10 acks = %d, want 11", got)
	}
	if v.st.String() != "slow-start" {
		t.Fatal("should still be in slow start at low delay")
	}
}

func TestSlowStartExitsOnDelayThreshold(t *testing.T) {
	v := New(DefaultConfig())
	ack(v, 10*time.Millisecond, 1) // dMin = 10 ms
	for i := 0; i < 5; i++ {
		ack(v, 20*time.Millisecond, 2+i)
	}
	if v.st.String() != "slow-start" {
		t.Fatal("exited too early")
	}
	ack(v, 200*time.Millisecond, 8) // > 15 × 10 ms
	if v.st.String() != "normal" {
		t.Fatalf("state = %q after threshold delay, want normal", v.st.String())
	}
	if v.dEst < 0.01 {
		t.Fatalf("delay target %v not anchored", v.dEst)
	}
}

func TestSlowStartExitBuildsProfile(t *testing.T) {
	v := New(DefaultConfig())
	// Monotone window→delay relationship during slow start.
	for i := 1; i <= 30; i++ {
		ack(v, msd(10+float64(i)*2), i)
	}
	ack(v, msd(200), 31)
	if v.st.String() != "normal" {
		t.Fatalf("state = %q", v.st.String())
	}
	wins, pts, curve := v.ProfileSnapshot()
	if len(wins) < 20 || len(pts) != len(wins) {
		t.Fatalf("profile has %d points", len(wins))
	}
	if curve == nil {
		t.Fatal("no interpolated curve after slow-start exit")
	}
}

func TestEquation4RatioCaseDecrements(t *testing.T) {
	v := primedVerus(t)
	before := v.dEst
	// Feed an epoch whose delay ratio exceeds R: dMin 10 ms, delays 100 ms.
	ack(v, 100*time.Millisecond, 10)
	v.Tick(0)
	if v.dEst >= before {
		t.Fatalf("target should fall in ratio case: %v -> %v", before, v.dEst)
	}
}

func TestEquation4DeltaPositiveDecrementsByDelta1(t *testing.T) {
	cfg := DefaultConfig()
	cfg.R = 1000 // never trigger the ratio case
	v := primedVerusCfg(t, cfg)
	// Establish a steady dMax, then raise it slightly.
	for i := 0; i < 50; i++ {
		ack(v, 15*time.Millisecond, 10)
		v.Tick(0)
	}
	before := v.dEst
	ack(v, 30*time.Millisecond, 10) // ΔD > 0
	v.Tick(0)
	got := before - v.dEst
	want := cfg.Delta1.Seconds()
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("ΔD>0 decrement = %v, want δ1 = %v", got, want)
	}
}

func TestEquation4ImprovingChannelIncrements(t *testing.T) {
	cfg := DefaultConfig()
	cfg.R = 1000
	v := primedVerusCfg(t, cfg)
	// Decreasing delays → ΔD < 0 → target grows by δ2.
	for i := 0; i < 5; i++ {
		ack(v, msd(40), 10)
		v.Tick(0)
	}
	before := v.dEst
	ack(v, msd(20), 10)
	v.Tick(0)
	got := v.dEst - before
	if math.Abs(got-cfg.Delta2.Seconds()) > 1e-9 {
		t.Fatalf("increment = %v, want δ2 = %v", got, cfg.Delta2.Seconds())
	}
}

func TestTargetNeverFallsBelowDMin(t *testing.T) {
	v := primedVerus(t)
	for i := 0; i < 500; i++ {
		ack(v, 100*time.Millisecond, 10) // ratio case forever
		v.Tick(0)
	}
	if v.dEst < v.dMin-1e-12 {
		t.Fatalf("target %v below dMin %v", v.dEst, v.dMin)
	}
}

func TestTargetCappedNearRTimesDMin(t *testing.T) {
	v := primedVerus(t) // R = 2, dMin = 10 ms
	for i := 0; i < 500; i++ {
		ack(v, msd(10), 10) // steadily low delay → increments
		v.Tick(0)
	}
	ceiling := v.cfg.R*v.dMin + v.cfg.Delta2.Seconds()
	if v.dEst > ceiling+1e-12 {
		t.Fatalf("target %v exceeds ceiling %v", v.dEst, ceiling)
	}
}

func TestNoSampleEpochLeavesTargetAlone(t *testing.T) {
	v := primedVerus(t)
	before := v.dEst
	for i := 0; i < 10; i++ {
		v.Tick(0) // no acks in between
	}
	if v.dEst != before {
		t.Fatalf("target moved without samples: %v -> %v", before, v.dEst)
	}
}

func TestEquation5Quota(t *testing.T) {
	v := primedVerus(t)
	// S = wNext + (2-n)/(n-1)·w with n = ⌈srtt/ε⌉ (clamped ≥ 2).
	w := v.w
	n := math.Ceil(v.srtt.Seconds() / v.cfg.Epoch.Seconds())
	if n < 2 {
		n = 2
	}
	v.quota = 0   // drop any carried credit so the formula is exact
	v.setQuota(w) // steady state: wNext == w
	want := math.Max(0, w+(2-n)/(n-1)*w)
	if math.Abs(v.quota-want) > 1e-9 {
		t.Fatalf("quota = %v, want %v (n=%v)", v.quota, want, n)
	}
}

func TestEquation5QuotaNeverNegative(t *testing.T) {
	v := primedVerus(t)
	v.w = 100
	v.setQuota(1) // big drop
	if v.quota < 0 {
		t.Fatalf("quota = %v", v.quota)
	}
}

func TestOnSendConsumesQuota(t *testing.T) {
	v := primedVerus(t)
	// After a window drop Eq. 5 can legitimately yield S = 0 for an epoch
	// or two; run epochs until a positive quota appears.
	q0 := 0
	for i := 0; i < 20 && q0 <= 0; i++ {
		ack(v, msd(20), 10)
		v.Tick(0)
		q0 = v.Allowance(0, 0)
	}
	if q0 <= 0 {
		t.Fatalf("no quota after settling (q=%d)", q0)
	}
	v.OnSend(0, 1, 1)
	if got := v.Allowance(0, 1); got != q0-1-0 && got != q0-1 {
		// Inflight also rose by one; the cap may bind. Accept either exact
		// decrement.
		t.Fatalf("allowance after send = %d, want %d", got, q0-1)
	}
}

func TestInflightCapBindsDuringStall(t *testing.T) {
	v := primedVerus(t)
	ack(v, msd(20), 10)
	v.Tick(0)
	huge := int(inflightCap*v.w) + 50
	if got := v.Allowance(0, huge); got != 0 {
		t.Fatalf("allowance with %d inflight = %d, want 0", huge, got)
	}
}

func TestLossMultiplicativeDecrease(t *testing.T) {
	v := primedVerus(t)
	v.OnLoss(0, cc.LossEvent{SentWindow: 40})
	if v.st.String() != "loss-recovery" {
		t.Fatalf("state = %q", v.st.String())
	}
	if got := v.Window(); math.Abs(got-20) > 1 {
		t.Fatalf("window after loss = %v, want M·W_loss = 20", got)
	}
}

func TestLossUsesWlossNotCurrentWindow(t *testing.T) {
	v := primedVerus(t)
	v.w = 100
	v.OnLoss(0, cc.LossEvent{SentWindow: 10})
	if got := v.Window(); math.Abs(got-5) > 1 {
		t.Fatalf("window = %v, want M·10 = 5", got)
	}
}

func TestSecondLossDuringRecoveryIgnored(t *testing.T) {
	v := primedVerus(t)
	v.OnLoss(0, cc.LossEvent{SentWindow: 40})
	w := v.Window()
	v.OnLoss(0, cc.LossEvent{SentWindow: 40})
	if v.Window() != w {
		t.Fatal("recovery loss caused second decrease")
	}
	_, losses, _, _ := v.Stats()
	if losses != 1 {
		t.Fatalf("losses = %d, want 1", losses)
	}
}

func TestRecoveryGrowsOnePerWindow(t *testing.T) {
	v := primedVerus(t)
	v.OnLoss(0, cc.LossEvent{SentWindow: 40})
	w := v.Window()
	ack(v, msd(20), 100) // old big tag: stays in recovery
	if got := v.Window(); math.Abs(got-(w+1/w)) > 1e-9 {
		t.Fatalf("recovery growth: %v -> %v, want +1/W", w, got)
	}
	if v.st.String() != "loss-recovery" {
		t.Fatal("old-tag ack should not end recovery")
	}
}

func TestRecoveryExitsOnPostLossAck(t *testing.T) {
	v := primedVerus(t)
	v.OnLoss(0, cc.LossEvent{SentWindow: 40})
	ack(v, msd(20), int(v.Window())) // tag ≤ current window
	if v.st.String() != "normal" {
		t.Fatalf("state = %q after post-loss ack", v.st.String())
	}
}

func TestProfileFrozenDuringRecovery(t *testing.T) {
	v := primedVerus(t)
	v.OnLoss(0, cc.LossEvent{SentWindow: 40})
	wins0, _, _ := v.ProfileSnapshot()
	ack(v, msd(20), 999) // would create a new point if not in recovery
	wins1, _, _ := v.ProfileSnapshot()
	if len(wins1) != len(wins0) {
		t.Fatal("profile updated during loss recovery")
	}
}

func TestTimeoutReentersSlowStart(t *testing.T) {
	v := primedVerus(t)
	v.OnTimeout(0)
	if v.st.String() != "slow-start" {
		t.Fatalf("state = %q after timeout", v.st.String())
	}
	if got := v.Allowance(0, 0); got != 1 {
		t.Fatalf("allowance after timeout = %d, want 1", got)
	}
	_, _, timeouts, _ := v.Stats()
	if timeouts != 1 {
		t.Fatalf("timeouts = %d", timeouts)
	}
}

func TestSendTagAtLeastOne(t *testing.T) {
	v := New(DefaultConfig())
	if v.SendTag() < 1 {
		t.Fatalf("SendTag = %d", v.SendTag())
	}
}

func TestStaticProfileFreezes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StaticProfile = true
	v := primedVerusCfg(t, cfg)
	wins0, pts0, _ := v.ProfileSnapshot()
	// Feed many acks at a new window value; frozen profile must not change.
	for i := 0; i < 50; i++ {
		ack(v, msd(33), 77)
		v.Tick(0)
	}
	wins1, pts1, _ := v.ProfileSnapshot()
	if len(wins1) != len(wins0) {
		t.Fatal("static profile gained points")
	}
	for i := range pts0 {
		if pts0[i] != pts1[i] {
			t.Fatal("static profile point moved")
		}
	}
}

func TestProfileRefitCadence(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ProfileUpdateEvery = 50 * time.Millisecond // 10 epochs
	v := primedVerusCfg(t, cfg)
	_, _, _, refits0 := v.Stats()
	for i := 0; i < 25; i++ {
		ack(v, msd(20), 10)
		v.Tick(0)
	}
	_, _, _, refits1 := v.Stats()
	if got := refits1 - refits0; got < 2 || got > 3 {
		t.Fatalf("refits over 25 epochs = %d, want 2-3", got)
	}
}

func TestWindowRespondsToChannel(t *testing.T) {
	// A full closed-loop sanity check without the simulator: synthesize a
	// channel where delay grows linearly with window; Verus should settle
	// near the window whose delay matches R×dMin.
	cfg := DefaultConfig()
	v := New(cfg)
	delayFor := func(w float64) time.Duration {
		return msd(10 + w) // 10 ms base + 1 ms per window unit
	}
	// Slow start with realistic feedback until exit.
	for i := 1; v.st.String() == "slow-start" && i < 10000; i++ {
		w := v.Window()
		v.OnAck(0, cc.AckSample{RTT: delayFor(w), SentWindow: int(w)})
	}
	if v.st.String() != "normal" {
		t.Fatalf("slow start never exited (delay threshold 15×10 ms at W≈140)")
	}
	// Run epochs with feedback.
	for i := 0; i < 4000; i++ {
		w := v.Window()
		v.OnAck(0, cc.AckSample{RTT: delayFor(w), SentWindow: int(w)})
		v.Tick(0)
	}
	// Equilibrium: delay ≈ R × dMin = 2×10 ms → 10 + w = 20 → w ≈ 10.
	got := v.Window()
	if got < 3 || got > 30 {
		t.Fatalf("equilibrium window = %v, want ≈10", got)
	}
}

// primedVerus returns a controller in normal state with dMin = 10 ms, a
// monotone profile over windows 1..40, and srtt ≈ 20 ms.
func primedVerus(t *testing.T) *Verus { return primedVerusCfg(t, DefaultConfig()) }

func primedVerusCfg(t *testing.T, cfg Config) *Verus {
	t.Helper()
	v := New(cfg)
	ack(v, msd(10), 1) // dMin
	for i := 2; i <= 40; i++ {
		ack(v, msd(10+float64(i)/2), i)
	}
	// Trip the slow-start exit.
	ack(v, msd(10*slowStartExitN+5), 41)
	if v.st.String() != "normal" {
		t.Fatalf("priming failed: state %q", v.st.String())
	}
	// Pull srtt down toward 20 ms, then run one epoch so no samples are
	// pending and the target has been through Eq. 4 once.
	for i := 0; i < 30; i++ {
		ack(v, msd(20), 20)
	}
	v.Tick(0)
	return v
}
