// Package faults is a deterministic fault-injection layer for the Verus
// testbed. It composes impairments — full outages, handover stalls,
// Gilbert-Elliott loss bursts, per-packet corruption, duplication, and
// bounded reordering — onto an existing netsim link (Link decorator) or onto
// the real UDP transport (Proxy), without touching either one's internals.
// Both backends take their per-packet draws from one stream in one order —
// loss, corruption, reorder, duplicate — so one plan and one seed decide
// alike on either.
//
// Everything here is a pure function of a seed. Timed events (outages,
// stalls) run on netsim virtual time; per-packet decisions draw from a
// rand.Rand seeded by the caller, which in the experiments harness is a
// runner.DeriveSeed product — so serial and -parallel N runs of a fault
// scenario are byte-identical, the same contract the rest of the simulator
// honors (DESIGN.md §9, §13).
//
// The fault layer never hides bytes: every packet it removes, delays, or
// copies is accounted in Counters, and the netsim conservation identity
// extends through it (see link_test.go). Importing this package outside the
// simulation/bench layer is rejected statically by the nofaultsinprod
// analyzer.
package faults

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// EventKind distinguishes the timed impairment events in a Plan.
type EventKind int

const (
	// Outage is a full blackout: the bottleneck queue is drained on entry
	// (a cell reselection flushes the eNodeB buffer) and nothing is
	// accepted or delivered until the outage ends.
	Outage EventKind = iota
	// Handover is a stall-then-burst: deliveries freeze for the duration,
	// the frozen packets are buffered, and at the end the buffer is
	// released back-to-back — the delivery signature of an LTE handover.
	Handover
)

// String implements fmt.Stringer for diagnostics.
func (k EventKind) String() string {
	switch k {
	case Outage:
		return "outage"
	case Handover:
		return "handover"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one timed impairment window.
type Event struct {
	Kind EventKind
	// At is the window start, measured from the start of the run.
	At time.Duration
	// Dur is the window length.
	Dur time.Duration
}

// GilbertElliott parameterizes the classic two-state Markov loss model: a
// good state with residual loss and a bad state with bursty loss. The chain
// advances once per packet.
type GilbertElliott struct {
	// PGoodBad is the per-packet probability of moving good→bad.
	PGoodBad float64
	// PBadGood is the per-packet probability of moving bad→good.
	PBadGood float64
	// LossGood is the loss probability while in the good state.
	LossGood float64
	// LossBad is the loss probability while in the bad state.
	LossBad float64
}

func (g *GilbertElliott) validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"PGoodBad", g.PGoodBad}, {"PBadGood", g.PBadGood},
		{"LossGood", g.LossGood}, {"LossBad", g.LossBad},
	} {
		if p.v < 0 || p.v > 1 || p.v != p.v {
			return fmt.Errorf("faults: GilbertElliott.%s = %v out of [0,1]", p.name, p.v)
		}
	}
	return nil
}

// Plan is a schedulable program of impairments. The zero value (and nil) is
// the no-fault plan: every packet passes through untouched.
type Plan struct {
	// Name labels the plan in reports and bench output.
	Name string
	// Events are the timed outage/handover windows. Validate requires them
	// sorted by At and non-overlapping.
	Events []Event
	// Loss, when non-nil, applies Gilbert-Elliott loss to every delivery.
	Loss *GilbertElliott
	// CorruptProb is the per-packet probability that a delivered packet is
	// corrupted in flight. The simulator models the receiver's checksum
	// discard (the packet is counted and dropped); the UDP proxy flips a
	// header byte so the real receiver's parse rejects it.
	CorruptProb float64
	// DupProb is the per-packet probability that a delivery is duplicated.
	DupProb float64
	// ReorderProb is the per-packet probability that a delivery is delayed
	// by ReorderDelay, letting later packets overtake it.
	ReorderProb float64
	// ReorderDelay bounds the extra delay of a reordered packet. Required
	// positive when ReorderProb > 0.
	ReorderDelay time.Duration
}

// stochastic reports whether the plan takes any per-packet draw.
func (p *Plan) stochastic() bool {
	return p.Loss != nil || p.CorruptProb != 0 || p.DupProb != 0 || p.ReorderProb != 0
}

// Validate checks the plan's internal consistency: probabilities in [0,1],
// events sorted and non-overlapping, positive durations.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	for _, pr := range []struct {
		name string
		v    float64
	}{
		{"CorruptProb", p.CorruptProb}, {"DupProb", p.DupProb}, {"ReorderProb", p.ReorderProb},
	} {
		if pr.v < 0 || pr.v > 1 || pr.v != pr.v {
			return fmt.Errorf("faults: %s = %v out of [0,1]", pr.name, pr.v)
		}
	}
	if p.ReorderProb > 0 && p.ReorderDelay <= 0 {
		return fmt.Errorf("faults: ReorderProb set but ReorderDelay = %v", p.ReorderDelay)
	}
	if p.Loss != nil {
		if err := p.Loss.validate(); err != nil {
			return err
		}
	}
	if !sort.SliceIsSorted(p.Events, func(i, j int) bool { return p.Events[i].At < p.Events[j].At }) {
		return fmt.Errorf("faults: events not sorted by start time")
	}
	for i, ev := range p.Events {
		if ev.At < 0 || ev.Dur <= 0 {
			return fmt.Errorf("faults: event %d (%s) has At=%v Dur=%v; need At >= 0, Dur > 0", i, ev.Kind, ev.At, ev.Dur)
		}
		if i > 0 {
			prev := p.Events[i-1]
			if prev.At+prev.Dur > ev.At {
				return fmt.Errorf("faults: event %d (%s at %v) overlaps event %d ending %v",
					i, ev.Kind, ev.At, i-1, prev.At+prev.Dur)
			}
		}
	}
	return nil
}

// LastImpairmentEnd returns the end of the latest timed event, the reference
// point the chaos liveness suite measures recovery from. Stochastic
// processes (loss, corruption) have no end; they bound throughput, not
// liveness.
func (p *Plan) LastImpairmentEnd() time.Duration {
	if p == nil {
		return 0
	}
	var end time.Duration
	for _, ev := range p.Events {
		if e := ev.At + ev.Dur; e > end {
			end = e
		}
	}
	return end
}

// Counters account every packet the fault layer touches. All fields count
// packets; gauges are noted. The proxy keeps the same ledger, gauges
// included, except QueueDrained: it has no queue. The conservation identity
// through a wrapped link is (at quiescence, with Held and ReorderPending
// both zero):
//
//	innerDelivered = EgressDropped + BurstLost + Corrupted
//	               + (Delivered - Duplicated)
//
// and on the ingress side every Send either reached the inner link or is in
// SendDropped; queue drains at outage onset land in QueueDrained.
type Counters struct {
	// SendDropped counts packets rejected at ingress during an outage.
	SendDropped int64
	// QueueDrained counts packets flushed from the inner queue at outage
	// onset.
	QueueDrained int64
	// EgressDropped counts packets that exited the inner link during an
	// outage (in-flight at onset, or released into one) and were discarded.
	EgressDropped int64
	// BurstLost counts Gilbert-Elliott losses.
	BurstLost int64
	// Corrupted counts corrupted packets: the link discards them, the proxy
	// relays them mangled.
	Corrupted int64
	// Duplicated counts extra copies delivered (each adds one Delivered).
	Duplicated int64
	// Reordered counts deliveries held back for reordering.
	Reordered int64
	// Released counts packets burst-released at the end of handover stalls.
	Released int64
	// Held is a gauge: packets currently frozen by an active stall.
	Held int64
	// ReorderPending is a gauge: reordered packets not yet re-delivered.
	ReorderPending int64
	// Delivered counts every packet handed to the downstream receiver,
	// duplicates included.
	Delivered int64
}

// fields lists the counters in ledger order, the order Link.Walk writes them.
func (c *Counters) fields() [11]*int64 {
	return [11]*int64{&c.SendDropped, &c.QueueDrained, &c.EgressDropped, &c.BurstLost, &c.Corrupted,
		&c.Duplicated, &c.Reordered, &c.Released, &c.Held, &c.ReorderPending, &c.Delivered}
}

// Add accumulates o into c field by field (gauges included); the harness
// uses it to total ledgers across repetitions.
func (c *Counters) Add(o Counters) {
	of := o.fields()
	for i, f := range c.fields() {
		*f += *of[i]
	}
}

// draws is the per-packet impairment stream Link and Proxy share: the plan,
// the RNG its draws come from and the Gilbert-Elliott chain state. Both
// backends take the draws in one order — loss, corruption, reorder,
// duplicate — so one plan and one seed make the same decisions on either.
type draws struct {
	plan  *Plan
	rng   *rand.Rand
	geBad bool
}

// lost takes the loss draw and steps the Gilbert-Elliott chain, once per
// packet whatever the draw gave; a plan without a loss model draws nothing.
func (d *draws) lost() bool {
	g := d.plan.Loss
	if g == nil {
		return false
	}
	lossP := g.LossGood
	if d.geBad {
		lossP = g.LossBad
	}
	drop := lossP > 0 && d.rng.Float64() < lossP
	if d.geBad {
		if d.rng.Float64() < g.PBadGood {
			d.geBad = false
		}
	} else if d.rng.Float64() < g.PGoodBad {
		d.geBad = true
	}
	return drop
}

// hit takes one draw against prob; a zero probability draws nothing.
func (d *draws) hit(prob float64) bool {
	return prob > 0 && d.rng.Float64() < prob
}
