package faults_test

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/stats"
)

// TestFaultAttributionIdentity is the accounting-identity property test over
// the fault layer: across 30 random fault plans — outages, handover stalls
// with burst release, Gilbert-Elliott loss, corruption, duplication, and
// reorder re-delivery — every delivered packet's stamped components must sum
// exactly (integer nanoseconds) to its measured one-way delay. Violations
// and negative components are both pinned at zero; a missing or misordered
// stamp point in the fault paths shows up here as a nonzero ledger.
func TestFaultAttributionIdentity(t *testing.T) {
	var totalCount, faultHeld int64
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		stop := time.Duration(2+rng.Intn(4)) * time.Second
		plan := randomPlan(rng, stop)
		if err := plan.Validate(); err != nil {
			t.Fatalf("seed %d: generated invalid plan: %v", seed, err)
		}

		sim := netsim.NewSim()
		q := randomQueue(rng)
		rate := 1 + rng.Float64()*30
		prop := time.Duration(rng.Intn(40)) * time.Millisecond
		specs := randomSpecs(rng, stop)
		var agg stats.Attribution
		for i := range specs {
			specs[i].Attrib = &agg
		}
		netsim.NewDumbbell(sim, func(dst netsim.Receiver) netsim.Link {
			return faults.Wrap(sim, plan, seed+7, dst, func(fdst netsim.Receiver) netsim.Link {
				return netsim.NewFixedLink(sim, q, rate, prop, fdst, seed+100)
			})
		}, 1400, specs)

		// Quiescence: past the flows, the last timed event, and any pending
		// reorder delay.
		until := stop
		if e := plan.LastImpairmentEnd(); e > until {
			until = e
		}
		until += 5*time.Second + plan.ReorderDelay
		sim.Run(until)

		if agg.Count == 0 {
			t.Fatalf("seed %d: no deliveries; identity check vacuous", seed)
		}
		if agg.Violations != 0 || agg.Negatives != 0 {
			t.Errorf("seed %d: identity broken: %d violations, %d negatives over %d packets",
				seed, agg.Violations, agg.Negatives, agg.Count)
		}
		var sum int64
		for c := 0; c < stats.NumDelayComps; c++ {
			sum += agg.CompNs[c]
		}
		if sum != agg.TotalNs {
			t.Errorf("seed %d: aggregate sum %d ns != total %d ns", seed, sum, agg.TotalNs)
		}
		totalCount += agg.Count
		faultHeld += agg.CompNs[int(stats.DelayFaultHold)]
	}
	// Across the plan population, handover stalls and reorder delays must
	// actually have charged the fault component — otherwise the property
	// never exercised the stamps it exists to verify.
	if faultHeld == 0 {
		t.Fatalf("no fault-hold time charged across %d delivered packets; stamps unexercised", totalCount)
	}
}
