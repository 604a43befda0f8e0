package experiments

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/cellular"
	"repro/internal/faults"
)

// TestZeroFaultPlanIsNoPlan is a metamorphic relation over the fault layer: a
// plan whose every entry has probability zero must leave a run exactly as no
// plan leaves it, for every entry kind. The decorator still wraps the link
// and handles every delivery, so the relation covers its pass-through path,
// not only the nil shortcut Dumbbell.Build takes.
func TestZeroFaultPlanIsNoPlan(t *testing.T) {
	tr := cellTrace(cellular.Tech3G, cellular.CityStationary, 25, 20*time.Second, 5)
	plans := []struct {
		name string
		plan *faults.Plan
	}{
		{"zero Gilbert-Elliott", &faults.Plan{Loss: &faults.GilbertElliott{}}},
		{"Gilbert-Elliott flipping states, lossless", &faults.Plan{Loss: &faults.GilbertElliott{PGoodBad: 0.5, PBadGood: 0.5}}},
		{"zero corrupt, dup and reorder", &faults.Plan{ReorderDelay: 20 * time.Millisecond}},
		{"empty", &faults.Plan{}},
	}
	for _, mk := range []Maker{VerusMaker(2), CubicMaker(), NewRenoMaker()} {
		run := func(p *faults.Plan) RunResult {
			return TraceRun{Trace: tr, Maker: mk, Flows: 4, Duration: 20 * time.Second, Seed: 9, Faults: p}.Run()
		}
		want := run(nil)
		if want.MeanMbps() == 0 {
			t.Fatalf("%s: nothing delivered without a plan", mk.Name)
		}
		for _, pc := range plans {
			if err := pc.plan.Validate(); err != nil {
				t.Fatalf("%s: %v", pc.name, err)
			}
			got := run(pc.plan)
			if got.Faults == nil || got.Faults.Delivered == 0 {
				t.Fatalf("%s, %s: the fault decorator delivered nothing; the relation is vacuous", mk.Name, pc.name)
			}
			if !reflect.DeepEqual(got.Flows, want.Flows) ||
				!reflect.DeepEqual(got.PerSecondMbps, want.PerSecondMbps) ||
				!reflect.DeepEqual(got.PerSecondDelay, want.PerSecondDelay) {
				t.Errorf("%s, %s: the run differs from one with no plan\n got flows %+v\nwant flows %+v", mk.Name, pc.name, got.Flows, want.Flows)
			}
		}
	}
}
