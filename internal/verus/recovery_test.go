package verus

import (
	"math"
	"testing"
	"time"

	"repro/internal/cc"
)

// Unit pins for the §4.2 loss/timeout recovery paths. Until PR 4 these
// transitions were exercised only incidentally through integration runs;
// these tests nail each one down at the state-machine level.

// toNormal drives a fresh controller out of slow start into the normal
// state: a few low-delay acks establish D_min and profile points, then one
// ack above N×D_min triggers the exit.
func toNormal(t *testing.T, v *Verus) {
	t.Helper()
	for i := 1; i <= 20; i++ {
		ack(v, msd(10+float64(i%3)), i)
	}
	ack(v, msd(10*float64(slowStartExitN)+50), 21)
	if v.st != stateNormal {
		t.Fatalf("setup: state = %v after delay spike, want normal", v.st)
	}
}

// TestEq6MultiplicativeDecrease pins Eq. 6: on loss the window becomes
// M × W_i where W_i is the send tag of the lost packet, and the controller
// enters loss recovery.
func TestEq6MultiplicativeDecrease(t *testing.T) {
	v := New(DefaultConfig())
	toNormal(t, v)
	v.OnLoss(time.Second, cc.LossEvent{Seq: 1, SentWindow: 40})
	if v.st != stateRecovery {
		t.Fatalf("state after loss = %v, want recovery", v.st)
	}
	if got, want := v.Window(), 0.5*40.0; got != want {
		t.Fatalf("window after loss = %v, want M×W_loss = %v", got, want)
	}

	// One reduction per episode: a second loss inside recovery must not
	// halve again (NewReno-style).
	v.OnLoss(time.Second, cc.LossEvent{Seq: 2, SentWindow: 18})
	if got := v.Window(); got != 20 {
		t.Fatalf("second loss inside recovery changed window to %v, want 20", got)
	}
	if _, losses, _, _ := v.Stats(); losses != 1 {
		t.Fatalf("losses counter = %d, want 1 (episode absorbs later losses)", losses)
	}

	// Eq. 6 floors at one packet.
	v2 := New(DefaultConfig())
	toNormal(t, v2)
	v2.OnLoss(time.Second, cc.LossEvent{Seq: 1, SentWindow: 1})
	if got := v2.Window(); got != 1 {
		t.Fatalf("window after loss of tag-1 packet = %v, want floor of 1", got)
	}
}

// TestRecoveryExit pins the episode end: recovery exits once an ack arrives
// for a packet sent at or below the post-decrease window, and the delay
// target re-anchors to the profile's prediction for the new window.
func TestRecoveryExit(t *testing.T) {
	v := New(DefaultConfig())
	toNormal(t, v)
	v.OnLoss(time.Second, cc.LossEvent{Seq: 1, SentWindow: 40})
	// Acks tagged above both the exit tag (20) and the current window keep
	// the episode open and grow the window additively.
	wBefore := v.Window()
	ack(v, msd(12), 39)
	if v.st != stateRecovery {
		t.Fatal("high-tag ack ended recovery early")
	}
	if got := v.Window(); got <= wBefore {
		t.Fatalf("recovery ack did not grow window additively: %v -> %v", wBefore, got)
	}
	// An ack tagged at the exit window closes the episode.
	ack(v, msd(12), 20)
	if v.st != stateNormal {
		t.Fatalf("state after exit-tag ack = %v, want normal", v.st)
	}
	if v.dEst <= 0 {
		t.Fatal("recovery exit left no delay target")
	}
	if c := v.ceiling(); v.dEst > c {
		t.Fatalf("re-anchored target %v above the delay budget %v", v.dEst, c)
	}
}

// TestTimeoutEntersCappedSlowStart pins the R_timeout transition: the window
// collapses to 1, the state returns to slow start, and the restarted slow
// start exits at M × the pre-timeout window (the ssthresh analogue).
func TestTimeoutEntersCappedSlowStart(t *testing.T) {
	v := New(DefaultConfig())
	toNormal(t, v)
	v.w = 60
	v.OnTimeout(2 * time.Second)
	if v.st != stateSlowStart {
		t.Fatalf("state after timeout = %v, want slow-start", v.st)
	}
	if got := v.Window(); got != 1 {
		t.Fatalf("window after timeout = %v, want 1", got)
	}
	if got, want := v.ssCap, 30.0; got != want {
		t.Fatalf("ssCap = %v, want M × pre-timeout window = %v", got, want)
	}
	// Low-delay acks now grow the restarted slow start; it must cap at
	// ssCap instead of probing exponentially past the old operating point.
	for i := 0; i < 60 && v.st == stateSlowStart; i++ {
		ack(v, msd(10), 5)
	}
	if v.st != stateNormal {
		t.Fatal("restarted slow start never exited at its cap")
	}
	if got := v.Window(); got > 31 {
		t.Fatalf("restarted slow start exited at window %v, past ssCap 30", got)
	}
}

// TestTimeoutEpochFiltersStaleAcks pins Resilient's timeout epochs: after an
// RTO, acks for packets sent before the timeout (burst-released ghosts) are
// discarded — they touch neither the slow-start clock, D_min, nor the
// profile — while a fresh ack closes the epoch and is processed normally.
func TestTimeoutEpochFiltersStaleAcks(t *testing.T) {
	// One timeout stays below relearnTimeouts, so the epoch filter is all
	// that acts.
	v := New(ResilientConfig())
	toNormal(t, v)
	at := 10 * time.Second
	v.OnTimeout(at)
	dMinBefore := v.dMin
	ssWBefore := v.ssW

	// Sent at 9.7 s (RTT 400 ms from 10.1 s), i.e. before the timeout:
	// a queue ghost with a huge delay. Must be dropped entirely.
	v.OnAck(at+100*time.Millisecond, cc.AckSample{RTT: 400 * time.Millisecond, SentWindow: 50, Bytes: 1400})
	if v.ssW != ssWBefore {
		t.Fatal("stale ack advanced the restarted slow start")
	}
	if v.dMin != dMinBefore {
		t.Fatal("stale ack moved D_min")
	}
	if stale := v.staleAcks.Value(); stale != 1 {
		t.Fatalf("staleAcks = %d, want 1", stale)
	}

	// A very small RTT also filters: what matters is the send time, not
	// the delay magnitude. Sent at 10.05 − 0.2 = 9.85 s < 10 s.
	v.OnAck(at+50*time.Millisecond, cc.AckSample{RTT: 200 * time.Millisecond, SentWindow: 2, Bytes: 1400})
	if stale := v.staleAcks.Value(); stale != 2 {
		t.Fatalf("staleAcks = %d, want 2", stale)
	}

	// Fresh ack: sent at 10.35 s, after the timeout. Processed, closes the
	// epoch, and subsequent pre-timeout send times are irrelevant.
	v.OnAck(at+400*time.Millisecond, cc.AckSample{RTT: 50 * time.Millisecond, SentWindow: 2, Bytes: 1400})
	if v.ssW != ssWBefore+1 {
		t.Fatal("fresh ack did not advance slow start")
	}
	if stale := v.staleAcks.Value(); stale != 2 {
		t.Fatal("fresh ack was filtered")
	}

	// Under DefaultConfig the filter is off: the same ghost ack would have
	// been processed (digest-preserving default).
	vOff := New(DefaultConfig())
	toNormal(t, vOff)
	vOff.OnTimeout(at)
	before := vOff.ssW
	vOff.OnAck(at+100*time.Millisecond, cc.AckSample{RTT: 400 * time.Millisecond, SentWindow: 50, Bytes: 1400})
	if vOff.ssW != before+1 {
		t.Fatal("DefaultConfig filtered a stale ack; recovery behaviors must be opt-in")
	}
}

// TestRelearnAfterConsecutiveTimeouts pins the blackout recovery: two RTOs
// with no intervening ack wipe the profile and delay floor, while a single
// timeout — or two separated by an ack — keeps the learned state.
func TestRelearnAfterConsecutiveTimeouts(t *testing.T) {
	v := New(ResilientConfig())
	toNormal(t, v)
	if v.profile.numPoints() == 0 {
		t.Fatal("setup: no profile points learned")
	}

	v.OnTimeout(5 * time.Second)
	if relearns := v.relearns.Value(); relearns != 0 {
		t.Fatal("single timeout triggered a relearn; threshold is 2")
	}
	if v.profile.numPoints() == 0 {
		t.Fatal("single timeout wiped the profile")
	}

	// An ack (fresh: sent after the RTO) resets the consecutive count.
	v.OnAck(6*time.Second, cc.AckSample{RTT: 20 * time.Millisecond, SentWindow: 2, Bytes: 1400})
	v.OnTimeout(7 * time.Second)
	if relearns := v.relearns.Value(); relearns != 0 {
		t.Fatal("ack-separated timeouts triggered a relearn")
	}

	// Second consecutive RTO: blackout. Everything resets.
	v.OnTimeout(8 * time.Second)
	if relearns := v.relearns.Value(); relearns != 1 {
		t.Fatal("two consecutive timeouts did not trigger a relearn")
	}
	if v.profile.numPoints() != 0 || v.profile.ready() {
		t.Fatal("relearn kept stale profile knots")
	}
	if !math.IsInf(v.dMin, 1) {
		t.Fatalf("relearn kept stale D_min = %v", v.dMin)
	}
	if v.dEst != 0 || v.dMaxPrimed {
		t.Fatal("relearn kept stale delay-estimator state")
	}

	// The controller re-learns: post-outage acks rebuild floor and profile.
	for i := 1; i <= 30; i++ {
		v.OnAck(9*time.Second+time.Duration(i)*time.Millisecond,
			cc.AckSample{RTT: 30 * time.Millisecond, SentWindow: i, Bytes: 1400})
	}
	if v.profile.numPoints() == 0 {
		t.Fatal("profile did not rebuild after relearn")
	}
	if math.IsInf(v.dMin, 1) {
		t.Fatal("D_min did not rebuild after relearn")
	}

	// DefaultConfig never relearns, however many timeouts pile up.
	vOff := New(DefaultConfig())
	toNormal(t, vOff)
	for i := 0; i < 5; i++ {
		vOff.OnTimeout(time.Duration(10+i) * time.Second)
	}
	if relearns := vOff.relearns.Value(); relearns != 0 {
		t.Fatal("DefaultConfig relearned; recovery behaviors must be opt-in")
	}
	if vOff.profile.numPoints() == 0 {
		t.Fatal("DefaultConfig wiped the profile on timeouts")
	}
}
