package faults_test

import (
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/tcp"
	"repro/internal/verus"
)

// The chaos liveness suite: every canned fault plan is swept against the
// hardened Verus and the TCP baselines, and every flow must resume delivery
// within a bounded recovery time after the last timed impairment. This is
// the acceptance bar of ISSUE 4 — the point of the recovery paths is that
// no plan leaves a flow dead. CI runs this under -race (the chaos smoke
// job); the netsim runs here are single-goroutine, and the companion
// transport-level suite exercises the real goroutine paths.

// recoveryBound is how long after the last outage/handover a flow may stay
// silent. It covers a full RTO backoff ladder (the worst post-blackout
// wakeup: 200 ms → 60 s is not reachable in these runs; observed worst
// cases sit near 4-6 s for Verus after the long tunnel) plus a restarted
// slow start.
const recoveryBound = 15 * time.Second

func chaosControllers() map[string]func() cc.Controller {
	return map[string]func() cc.Controller{
		"verus-resilient": func() cc.Controller { return verus.New(verus.ResilientConfig()) },
		"cubic":           func() cc.Controller { return tcp.NewCubic() },
		"newreno":         func() cc.Controller { return tcp.NewNewReno() },
	}
}

func TestChaosLivenessSweep(t *testing.T) {
	const runFor = 60 * time.Second
	names := []string{"verus-resilient", "cubic", "newreno"}
	ctrls := chaosControllers()
	for _, plan := range faults.Names() {
		for _, ctrlName := range names {
			t.Run(plan+"/"+ctrlName, func(t *testing.T) {
				t.Parallel()
				p, err := faults.ByName(plan, runFor)
				if err != nil {
					t.Fatal(err)
				}
				sim := netsim.NewSim()
				q := netsim.NewDropTail(256 * 1400)
				var fl *faults.Link
				d := netsim.NewDumbbell(sim, func(dst netsim.Receiver) netsim.Link {
					fl = faults.Wrap(sim, p, 42, dst, func(fdst netsim.Receiver) netsim.Link {
						return netsim.NewFixedLink(sim, q, 12, 20*time.Millisecond, fdst, 43)
					})
					return fl
				}, 1400, []netsim.FlowSpec{
					{Ctrl: ctrls[ctrlName](), AckDelay: 20 * time.Millisecond},
					{Ctrl: ctrls[ctrlName](), AckDelay: 20 * time.Millisecond},
				})

				lastEnd := p.LastImpairmentEnd()
				if lastEnd == 0 {
					// Pure stochastic plan: measure from mid-run instead.
					lastEnd = runFor / 2
				}
				sim.Run(lastEnd)
				before := make([]int64, len(d.Metrics))
				for i, m := range d.Metrics {
					before[i] = m.Received
				}
				sim.Run(lastEnd + recoveryBound)
				for i, m := range d.Metrics {
					if m.Received <= before[i] {
						t.Errorf("flow %d dead: no delivery within %v after the last impairment (received stuck at %d; sent %d, timeouts %d)",
							i, recoveryBound, m.Received, m.Sent, m.Timeouts)
					}
				}
				// Sanity: the plan actually did something to this run.
				c := fl.Counters
				touched := c.SendDropped + c.QueueDrained + c.EgressDropped +
					c.BurstLost + c.Corrupted + c.Released
				if touched == 0 {
					t.Errorf("plan %s injected nothing over %v", plan, runFor)
				}
			})
		}
	}
}

// TestChaosRecoveryRebuildsVerus checks the §4.2 integration end to end: a
// double tunnel outage must trigger the resilient config's profile relearn,
// and the flow must still deliver meaningful traffic afterwards.
func TestChaosRecoveryRebuildsVerus(t *testing.T) {
	const runFor = 60 * time.Second
	p, err := faults.ByName(faults.ScenarioTunnelOutage, runFor)
	if err != nil {
		t.Fatal(err)
	}
	v := verus.New(verus.ResilientConfig())
	reg := obs.NewRegistry()
	v.Observe(obs.NewObserver(nil, reg), 0, 0)
	sim := netsim.NewSim()
	q := netsim.NewDropTail(256 * 1400)
	d := netsim.NewDumbbell(sim, func(dst netsim.Receiver) netsim.Link {
		return faults.Wrap(sim, p, 7, dst, func(fdst netsim.Receiver) netsim.Link {
			return netsim.NewFixedLink(sim, q, 12, 20*time.Millisecond, fdst, 8)
		})
	}, 1400, []netsim.FlowSpec{{Ctrl: v, AckDelay: 20 * time.Millisecond}})
	sim.Run(runFor)

	if _, _, timeouts, _ := v.Stats(); timeouts == 0 {
		t.Fatal("tunnel outages produced no Verus timeout; the scenario is too weak to test recovery")
	}
	if reg.Counter(obs.Labeled("verus_relearns_total", "flow", "0", "run", "0")).Value() == 0 {
		t.Error("consecutive blackout timeouts never triggered a profile relearn")
	}
	m := d.Metrics[0]
	if m.Received == 0 {
		t.Fatal("flow delivered nothing at all")
	}
	// The two tunnels cover ~7 s of a 60 s run; a recovered flow should
	// still land a substantial fraction of what it sent.
	if got := float64(m.Received) / float64(m.Sent); got < 0.5 {
		t.Errorf("delivery ratio %.2f after recovery; the flow never properly resumed", got)
	}
}
