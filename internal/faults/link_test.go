package faults_test

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/netsim"
)

// The netsim conservation identity, extended through the fault layer: every
// packet a source sends is accounted exactly once — rejected at ingress
// during an outage, dropped by the queue, drained at outage onset, lost by
// the inner link, removed by a fault process, or delivered (duplicates add
// to both sides). These tests are the property-level proof that the
// decorator hides no bytes.

func queueDrops(q netsim.Queue) int64 {
	switch q := q.(type) {
	case *netsim.DropTail:
		return int64(q.Drops)
	case *netsim.RED:
		return int64(q.Drops)
	default:
		panic("unknown queue type")
	}
}

func randomQueue(rng *rand.Rand) netsim.Queue {
	if rng.Intn(2) == 0 {
		return netsim.NewDropTail(20_000 + rng.Intn(400_000))
	}
	min := 10_000 + rng.Intn(50_000)
	max := min*2 + rng.Intn(200_000)
	return netsim.NewRED(min, max, 0.02+rng.Float64()*0.3, rng.Int63())
}

func randomSpecs(rng *rand.Rand, stop time.Duration) []netsim.FlowSpec {
	specs := make([]netsim.FlowSpec, 1+rng.Intn(4))
	for i := range specs {
		specs[i] = netsim.FlowSpec{
			CBRMbps: 0.5 + rng.Float64()*10,
			Stop:    stop,
			MTU:     200 + rng.Intn(1400),
		}
	}
	return specs
}

// randomPlan exercises every impairment with randomized parameters. Events
// are laid out by walking time forward, so they are sorted and disjoint by
// construction.
func randomPlan(rng *rand.Rand, span time.Duration) *faults.Plan {
	p := &faults.Plan{Name: "random"}
	at := time.Duration(rng.Int63n(int64(span / 4)))
	for at < span*3/4 {
		dur := time.Duration(50+rng.Intn(700)) * time.Millisecond
		kind := faults.Outage
		if rng.Intn(2) == 0 {
			kind = faults.Handover
		}
		p.Events = append(p.Events, faults.Event{Kind: kind, At: at, Dur: dur})
		at += dur + time.Duration(200+rng.Intn(2000))*time.Millisecond
	}
	if rng.Intn(2) == 0 {
		p.Loss = &faults.GilbertElliott{
			PGoodBad: rng.Float64() * 0.05,
			PBadGood: 0.05 + rng.Float64()*0.3,
			LossGood: rng.Float64() * 0.01,
			LossBad:  rng.Float64() * 0.5,
		}
	}
	p.CorruptProb = rng.Float64() * 0.01
	p.DupProb = rng.Float64() * 0.01
	if rng.Intn(2) == 0 {
		p.ReorderProb = rng.Float64() * 0.02
		p.ReorderDelay = time.Duration(1+rng.Intn(50)) * time.Millisecond
	}
	return p
}

type faultRun struct {
	sim   *netsim.Sim
	d     *netsim.Dumbbell
	fl    *faults.Link
	inner *netsim.FixedLink
	q     netsim.Queue
}

func runFaultDumbbell(seed int64, plan *faults.Plan, rng *rand.Rand, stop, until time.Duration) faultRun {
	sim := netsim.NewSim()
	var r faultRun
	r.sim = sim
	r.q = randomQueue(rng)
	rate := 1 + rng.Float64()*30
	prop := time.Duration(rng.Intn(40)) * time.Millisecond
	specs := randomSpecs(rng, stop)
	r.d = netsim.NewDumbbell(sim, func(dst netsim.Receiver) netsim.Link {
		r.fl = faults.Wrap(sim, plan, seed+7, dst, func(fdst netsim.Receiver) netsim.Link {
			r.inner = netsim.NewFixedLink(sim, r.q, rate, prop, fdst, seed+100)
			return r.inner
		})
		return r.fl
	}, 1400, specs)
	sim.Run(until)
	return r
}

func TestFaultConservationFixedLink(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		stop := time.Duration(3+rng.Intn(5)) * time.Second
		plan := randomPlan(rng, stop)
		if err := plan.Validate(); err != nil {
			t.Fatalf("seed %d: generated invalid plan: %v", seed, err)
		}
		// Quiescence: past the flows, the last timed event, the queue
		// drain, and any pending reorder delay.
		until := stop
		if e := plan.LastImpairmentEnd(); e > until {
			until = e
		}
		until += 5*time.Second + plan.ReorderDelay
		r := runFaultDumbbell(seed, plan, rng, stop, until)

		var sent, received int64
		for _, m := range r.d.Metrics {
			sent += m.Sent
			received += m.Received
		}
		c := r.fl.Counters
		if r.q.Len() != 0 {
			t.Fatalf("seed %d: queue not drained: %d packets", seed, r.q.Len())
		}
		if c.Held != 0 || c.ReorderPending != 0 {
			t.Fatalf("seed %d: not quiescent: held=%d reorderPending=%d", seed, c.Held, c.ReorderPending)
		}
		// Ingress side: every sent packet reached the inner link, was
		// rejected during an outage, was dropped by the queue, or was
		// drained at an outage onset.
		ingress := c.SendDropped + queueDrops(r.q) + c.QueueDrained + r.inner.Lost + r.inner.Delivered
		if ingress != sent {
			t.Errorf("seed %d: ingress conservation: sent=%d but sendDropped=%d + qDrops=%d + drained=%d + lost=%d + delivered=%d = %d",
				seed, sent, c.SendDropped, queueDrops(r.q), c.QueueDrained, r.inner.Lost, r.inner.Delivered, ingress)
		}
		// Egress side: everything the inner link delivered was dropped by
		// an outage, a loss burst, or corruption — or reached the sinks
		// (duplicates inflate Delivered by exactly Duplicated).
		egress := c.EgressDropped + c.BurstLost + c.Corrupted + c.Delivered - c.Duplicated
		if egress != r.inner.Delivered {
			t.Errorf("seed %d: egress conservation: inner delivered %d but egressDropped=%d + burstLost=%d + corrupted=%d + (delivered=%d - dup=%d) = %d",
				seed, r.inner.Delivered, c.EgressDropped, c.BurstLost, c.Corrupted, c.Delivered, c.Duplicated, egress)
		}
		if received != c.Delivered {
			t.Errorf("seed %d: sinks received %d but fault layer delivered %d", seed, received, c.Delivered)
		}
	}
}

// TestFaultPlanDeterminism pins the byte-identical contract: the same seed
// replays the same impairment decisions, packet for packet.
func TestFaultPlanDeterminism(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		run := func() (faults.Counters, []netsim.FlowMetrics) {
			rng := rand.New(rand.NewSource(seed))
			stop := 4 * time.Second
			plan := randomPlan(rng, stop)
			r := runFaultDumbbell(seed, plan, rng, stop, stop+6*time.Second)
			var ms []netsim.FlowMetrics
			for _, m := range r.d.Metrics {
				ms = append(ms, *m)
			}
			return r.fl.Counters, ms
		}
		c1, m1 := run()
		c2, m2 := run()
		if c1 != c2 {
			t.Fatalf("seed %d: counters differ across identical runs:\n%+v\n%+v", seed, c1, c2)
		}
		for i := range m1 {
			if m1[i].Sent != m2[i].Sent || m1[i].Received != m2[i].Received {
				t.Fatalf("seed %d flow %d: metrics differ: sent %d/%d received %d/%d",
					seed, i, m1[i].Sent, m2[i].Sent, m1[i].Received, m2[i].Received)
			}
		}
	}
}

// TestOutageSemantics scripts one blackout and checks the queue-drain and
// delivery-freeze behavior at exact virtual times.
func TestOutageSemantics(t *testing.T) {
	sim := netsim.NewSim()
	plan := &faults.Plan{
		Name:   "one-outage",
		Events: []faults.Event{{Kind: faults.Outage, At: 1 * time.Second, Dur: 2 * time.Second}},
	}
	q := netsim.NewDropTail(1 << 20)
	var fl *faults.Link
	d := netsim.NewDumbbell(sim, func(dst netsim.Receiver) netsim.Link {
		fl = faults.Wrap(sim, plan, 1, dst, func(fdst netsim.Receiver) netsim.Link {
			// 1 Mbps bottleneck fed at 4 Mbps: the queue is non-empty when
			// the outage hits, so the drain is observable.
			return netsim.NewFixedLink(sim, q, 1, 5*time.Millisecond, fdst, 2)
		})
		return fl
	}, 1400, []netsim.FlowSpec{{CBRMbps: 4, Stop: 6 * time.Second}})

	sim.Run(1100 * time.Millisecond) // inside the outage
	if q.Len() != 0 {
		t.Fatalf("queue holds %d packets during outage; drain should have emptied it", q.Len())
	}
	if fl.QueueDrained == 0 {
		t.Fatal("outage onset drained nothing; expected a backlog at a 4:1 overload")
	}
	atOutage := d.Metrics[0].Received
	sim.Run(2900 * time.Millisecond) // still inside
	if got := d.Metrics[0].Received; got != atOutage {
		t.Fatalf("sink received %d packets during the blackout (had %d)", got-atOutage, atOutage)
	}
	if fl.SendDropped == 0 {
		t.Fatal("no ingress drops during a 2 s outage under a live CBR source")
	}
	sim.Run(8 * time.Second) // after recovery and drain
	if got := d.Metrics[0].Received; got <= atOutage {
		t.Fatal("delivery did not resume after the outage")
	}
}

// TestHandoverSemantics scripts one stall and checks freeze-then-burst:
// nothing is delivered inside the window, and the held packets arrive after
// it ends.
func TestHandoverSemantics(t *testing.T) {
	sim := netsim.NewSim()
	plan := &faults.Plan{
		Name:   "one-handover",
		Events: []faults.Event{{Kind: faults.Handover, At: 1 * time.Second, Dur: 500 * time.Millisecond}},
	}
	q := netsim.NewDropTail(1 << 20)
	var fl *faults.Link
	d := netsim.NewDumbbell(sim, func(dst netsim.Receiver) netsim.Link {
		fl = faults.Wrap(sim, plan, 1, dst, func(fdst netsim.Receiver) netsim.Link {
			return netsim.NewFixedLink(sim, q, 8, 5*time.Millisecond, fdst, 2)
		})
		return fl
	}, 1400, []netsim.FlowSpec{{CBRMbps: 4, Stop: 3 * time.Second}})

	sim.Run(1 * time.Second)
	atStall := d.Metrics[0].Received
	sim.Run(1490 * time.Millisecond) // just before the stall ends
	if got := d.Metrics[0].Received; got != atStall {
		t.Fatalf("sink received %d packets during the stall", got-atStall)
	}
	if fl.Held == 0 {
		t.Fatal("stall held nothing; the link should be freezing deliveries")
	}
	sim.Run(5 * time.Second)
	if fl.Held != 0 {
		t.Fatalf("%d packets still held after the stall", fl.Held)
	}
	if fl.Released == 0 {
		t.Fatal("stall released nothing at its end")
	}
	var sent int64
	sent = d.Metrics[0].Sent
	total := queueDrops(q) + fl.Counters.Delivered
	if total != sent {
		t.Fatalf("handover leaked packets: sent=%d, qDrops+delivered=%d", sent, total)
	}
}

func TestPlanValidate(t *testing.T) {
	cases := []struct {
		name string
		p    *faults.Plan
		ok   bool
	}{
		{"nil", nil, true},
		{"zero", &faults.Plan{}, true},
		{"negative prob", &faults.Plan{CorruptProb: -0.1}, false},
		{"prob above one", &faults.Plan{DupProb: 1.5}, false},
		{"reorder without delay", &faults.Plan{ReorderProb: 0.1}, false},
		{"unsorted events", &faults.Plan{Events: []faults.Event{
			{Kind: faults.Outage, At: 2 * time.Second, Dur: time.Second},
			{Kind: faults.Outage, At: 1 * time.Second, Dur: time.Second},
		}}, false},
		{"overlapping events", &faults.Plan{Events: []faults.Event{
			{Kind: faults.Outage, At: time.Second, Dur: 2 * time.Second},
			{Kind: faults.Handover, At: 2 * time.Second, Dur: time.Second},
		}}, false},
		{"zero duration", &faults.Plan{Events: []faults.Event{
			{Kind: faults.Outage, At: time.Second},
		}}, false},
		{"bad GE", &faults.Plan{Loss: &faults.GilbertElliott{PGoodBad: 2}}, false},
		{"valid full", &faults.Plan{
			Events: []faults.Event{
				{Kind: faults.Outage, At: time.Second, Dur: time.Second},
				{Kind: faults.Handover, At: 3 * time.Second, Dur: time.Second},
			},
			Loss:         &faults.GilbertElliott{PGoodBad: 0.01, PBadGood: 0.2, LossBad: 0.3},
			CorruptProb:  0.001,
			DupProb:      0.001,
			ReorderProb:  0.01,
			ReorderDelay: 10 * time.Millisecond,
		}, true},
	}
	for _, tc := range cases {
		err := tc.p.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: validation passed, want error", tc.name)
		}
	}
}

func TestCannedScenarios(t *testing.T) {
	d := 60 * time.Second
	for _, name := range faults.Names() {
		p, err := faults.ByName(name, d)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("%s: invalid plan: %v", name, err)
		}
		if p.IsZero() {
			t.Errorf("%s: canned plan injects nothing", name)
		}
		if e := p.LastImpairmentEnd(); e > d {
			t.Errorf("%s: last event ends at %v, past the %v run", name, e, d)
		}
	}
	if _, err := faults.ByName("no-such-plan", d); err == nil {
		t.Error("unknown scenario name did not error")
	}
	// Below ≈5.7 s the tunnel's two outages overlap: ByName returns the
	// plan's validation error rather than a plan Wrap would panic on.
	for _, short := range []time.Duration{time.Second, 2 * time.Second, 5500 * time.Millisecond} {
		if p, err := faults.ByName(faults.ScenarioTunnelOutage, short); err == nil || p != nil {
			t.Errorf("tunnel-outage over %v: plan %v, error %v; want no plan and the overlap error", short, p, err)
		}
	}
	if _, err := faults.ByName(faults.ScenarioTunnelOutage, 6*time.Second); err != nil {
		t.Errorf("tunnel-outage over 6s: %v", err)
	}
	// The handover train derives from scenario mobility parameters; a
	// stationary scenario must produce no events.
	if p, _ := faults.ByName(faults.ScenarioHighwayHandover, d); len(p.Events) == 0 {
		t.Error("highway handover train is empty over 60 s")
	}
}
