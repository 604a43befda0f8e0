package experiments

import (
	"crypto/sha256"
	"fmt"
	"testing"
	"time"

	"repro/internal/faults"
)

// Figs. 5 and 7 render only a sketch of what they compute, so the golden
// digests cannot see a change in the rest of their results. These pins
// digest the full result values (%v), as they were before the figures moved
// onto the shared dumbbell builder.

func valueDigest(v any) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%v", v))))
}

func TestFigure5Pin(t *testing.T) {
	const want = "2e6c7eb7d612463e10cd299010cac606eba556dd940a10abeb311c07735f20ac"
	if got := valueDigest(Figure5(123)); got != want {
		t.Errorf("Figure5(123) digests %s, want %s", got, want)
	}
}

func TestFigure7Pin(t *testing.T) {
	const want = "f3b8f2d150be8a8305a2510fc812d0aee6f4aa49cfdc2afbf5c98d51c9b3aaa0"
	if got := valueDigest(Figure7(60*time.Second, 123)); got != want {
		t.Errorf("Figure7(60s, 123) digests %s, want %s", got, want)
	}
}

// The golden digests run the macro harnesses at 2 repetitions and the
// fault tables at 1, and -quick runs everything at 1, so no digest covers
// the seed keys of later repetitions. TestSweepResultsPinned digests the
// full result values of every harness on the shared (scenario × protocol
// × rep) sweep at enough repetitions to cover those keys.
func TestSweepResultsPinned(t *testing.T) {
	macro := MacroOptions{Duration: 3 * time.Second, Reps: 5, Seed: 42}
	chaos := MacroOptions{Duration: 8 * time.Second, Reps: 3, Seed: 42}
	fig10 := Figure10(macro)
	got := map[string]any{
		"Figure8":  Figure8(macro),
		"Figure9":  Figure9(macro),
		"Figure10": []any{fig10.Scenarios, fig10.PerFlow, fig10.Summary},
		"Table1":   Table1(macro),
	}
	for _, name := range faults.Names() {
		r, err := FaultScenario(name, chaos)
		if err != nil {
			t.Fatal(err)
		}
		got[name] = r
	}
	want := map[string]string{
		"Figure8":                      "f6a49a835fce29bd1057533f41e52491a18e84b98583ec26b543a862c8a24169",
		"Figure9":                      "274854839f81b0bb2fcf2da228fcb2d9b0bbdbef4dd6c61fac12b55b118e150c",
		"Figure10":                     "caa17a019410740c807cfcb7f28b00abe20520eb3ae78304151e02fb18af2a33",
		"Table1":                       "91ff7c5190b36c61c8cea81c1d83c3bbc46e17fa045e5be2cf421c71ce7d6d30",
		faults.ScenarioTunnelOutage:    "5fe329d1596af297ba35114433a4fb768dbcce724cbc88b604b80dfa416a789a",
		faults.ScenarioHighwayHandover: "e6fed78b711de23173fc49b388f894aed4b80cb0ee3c098eb261736f71e5c049",
		faults.ScenarioCityLoss:        "84ad4945b113e4c79b9e50b14db6519f948ba468307154840d315b5ca9d8bbaa",
	}
	if len(got) != len(want) {
		t.Fatalf("%d results for %d pins", len(got), len(want))
	}
	for name, v := range got {
		if d := valueDigest(v); d != want[name] {
			t.Errorf("%s digests %s, want %s", name, d, want[name])
		}
	}
}
