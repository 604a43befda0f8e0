package faults_test

import (
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/netsim"
)

// The 2% budget: wrapping a link in a zero plan must cost at most a few
// branch tests per packet. BenchmarkFixedLinkBare vs
// BenchmarkFixedLinkNoopWrapped is the pair that prices it; both run the
// identical 10-second, two-CBR-flow dumbbell, differing only in whether the
// decorator sits on the path.

func benchRun(b *testing.B, wrap bool) {
	const horizon = 10 * time.Second
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sim := netsim.NewSim()
		mk := func(dst netsim.Receiver) netsim.Link {
			return netsim.NewFixedLink(sim, netsim.NewDropTail(200_000), 10, 20*time.Millisecond, dst, 7)
		}
		build := mk
		if wrap {
			build = func(dst netsim.Receiver) netsim.Link {
				return faults.Wrap(sim, &faults.Plan{}, 7, dst, mk)
			}
		}
		d := netsim.NewDumbbell(sim, build, 1400, []netsim.FlowSpec{
			{CBRMbps: 6, Stop: horizon},
			{CBRMbps: 6, Stop: horizon},
		})
		d.Run(horizon)
		if d.Metrics[0].Received == 0 {
			b.Fatal("no delivery")
		}
	}
}

func BenchmarkFixedLinkBare(b *testing.B)        { benchRun(b, false) }
func BenchmarkFixedLinkNoopWrapped(b *testing.B) { benchRun(b, true) }

// BenchmarkFaultPlanActive prices a full stochastic plan (the city-loss
// mix), for the record rather than a budget.
func BenchmarkFaultPlanActive(b *testing.B) {
	const horizon = 10 * time.Second
	plan := faults.CityDrive(horizon)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sim := netsim.NewSim()
		d := netsim.NewDumbbell(sim, func(dst netsim.Receiver) netsim.Link {
			return faults.Wrap(sim, plan, 7, dst, func(fdst netsim.Receiver) netsim.Link {
				return netsim.NewFixedLink(sim, netsim.NewDropTail(200_000), 10, 20*time.Millisecond, fdst, 7)
			})
		}, 1400, []netsim.FlowSpec{
			{CBRMbps: 6, Stop: horizon},
			{CBRMbps: 6, Stop: horizon},
		})
		d.Run(horizon)
	}
}
