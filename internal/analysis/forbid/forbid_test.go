// The fixtures of the forbid table's rows live under testdata/<row>/src,
// one tree per row so that fixture package names do not collide. The whole
// table runs over each tree, so every test also pins that no other row
// fires there.
package forbid_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/forbid"
)

// TestFloatOrder runs the fixtures of the math.FMA row; float sums over map
// ranges are maprange's to report.
func TestFloatOrder(t *testing.T) {
	analysistest.RunSuite(t, "testdata/floatorder", forbid.Analyzers(), "experiments", "mathtool")
}

// TestNoFaultsInProd runs the fixtures of the nofaultsinprod row.
func TestNoFaultsInProd(t *testing.T) {
	analysistest.RunSuite(t, "testdata/nofaultsinprod", forbid.Analyzers(),
		"transport", "experiments")
}

// TestNoGlobalRand runs the fixtures of noglobalrand's two rows: the
// clock-seeded source in cellular/bad.go is nowalltime's to report.
func TestNoGlobalRand(t *testing.T) {
	analysistest.RunSuite(t, "testdata/noglobalrand", forbid.Analyzers(),
		"cellular", "experiments", "randtool")
}

// TestNoWallTime runs the fixtures of the nowalltime row.
func TestNoWallTime(t *testing.T) {
	analysistest.RunSuite(t, "testdata/nowalltime", forbid.Analyzers(), "netsim", "obs", "clocktool")
}
