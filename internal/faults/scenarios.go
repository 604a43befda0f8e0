package faults

import (
	"fmt"
	"time"

	"repro/internal/cellular"
)

// This file holds the canned fault plans exposed by verus-bench -faults and
// the experiments harness. Each builder takes the run duration and lays out
// timed events proportionally, so the same scenario scales from a quick
// 30-second golden render to a multi-minute bench run. The builders are
// pure: all randomness lives in the per-run seed handed to Wrap.

// Canned scenario names, in the stable order Names returns.
const (
	ScenarioTunnelOutage    = "tunnel-outage"
	ScenarioHighwayHandover = "highway-handover"
	ScenarioCityLoss        = "city-loss"
)

// Names returns the canned scenario names in a stable order.
func Names() []string {
	return []string{ScenarioTunnelOutage, ScenarioHighwayHandover, ScenarioCityLoss}
}

// ByName builds the canned plan for a run of duration d and validates it.
// Unknown names return an error listing the valid ones; a run too short for
// the plan's events to fit without overlapping (tunnel-outage below ≈5.7 s)
// returns Validate's error, where Wrap would panic inside the trial.
func ByName(name string, d time.Duration) (*Plan, error) {
	var p *Plan
	switch name {
	case ScenarioTunnelOutage:
		p = TunnelOutage(d)
	case ScenarioHighwayHandover:
		p = HandoverTrain(cellular.HighwayDriving, d)
	case ScenarioCityLoss:
		p = CityDrive(d)
	default:
		return nil, fmt.Errorf("faults: unknown scenario %q (valid: %v)", name, Names())
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("faults: scenario %q over %v: %w", name, d, err)
	}
	return p, nil
}

// TunnelOutage models a drive through two tunnels: a short blackout at 30%
// of the run and a longer one at 65%. Both drain the bottleneck queue on
// entry — exactly the "stale knots" situation §4.2's recovery path exists
// for: every delay measurement Verus learned before the tunnel describes a
// bearer that no longer exists.
func TunnelOutage(d time.Duration) *Plan {
	short := maxDur(2*time.Second, d/20)
	long := maxDur(4*time.Second, d/12)
	return &Plan{
		Name: ScenarioTunnelOutage,
		Events: []Event{
			{Kind: Outage, At: 3 * d / 10, Dur: short},
			{Kind: Outage, At: 65 * d / 100, Dur: long},
		},
	}
}

// HandoverTrain lays a periodic train of handover stalls sized by the
// scenario's mobility parameters (HandoverEvery / HandoverStall). A
// stationary scenario yields an empty plan.
func HandoverTrain(sc cellular.Scenario, d time.Duration) *Plan {
	p := &Plan{Name: ScenarioHighwayHandover}
	if sc.HandoverEvery <= 0 || sc.HandoverStall <= 0 {
		return p
	}
	for at := sc.HandoverEvery / 2; at+sc.HandoverStall < d; at += sc.HandoverEvery {
		p.Events = append(p.Events, Event{Kind: Handover, At: at, Dur: sc.HandoverStall})
	}
	return p
}

// CityDrive models a bursty city drive: Gilbert-Elliott loss bursts
// (street-canyon fading), residual corruption, occasional duplication and
// reordering from bearer reconfiguration, plus the city-driving handover
// train.
func CityDrive(d time.Duration) *Plan {
	train := HandoverTrain(cellular.CityDriving, d)
	return &Plan{
		Name:   ScenarioCityLoss,
		Events: train.Events,
		Loss: &GilbertElliott{
			PGoodBad: 0.008,
			PBadGood: 0.15,
			LossGood: 0.0005,
			LossBad:  0.25,
		},
		CorruptProb:  0.001,
		DupProb:      0.0005,
		ReorderProb:  0.002,
		ReorderDelay: 30 * time.Millisecond,
	}
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}
