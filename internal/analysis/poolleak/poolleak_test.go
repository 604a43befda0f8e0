package poolleak_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/poolleak"
)

func TestPoolLeak(t *testing.T) {
	analysistest.RunSuite(t, "testdata", []*analysis.Analyzer{poolleak.Analyzer}, "netsim")
}

// TestPoolRelease runs the fixtures of the bare netsim.Packet literal
// check, which kept its test name when its analyzer folded into poolleak.
func TestPoolRelease(t *testing.T) {
	analysistest.RunSuite(t, "testdata/bare", []*analysis.Analyzer{poolleak.Analyzer}, "netsim", "sprout")
}
