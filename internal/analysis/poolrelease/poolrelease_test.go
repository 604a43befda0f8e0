// Package poolrelease_test holds the fixtures of the bare netsim.Packet
// literal check, which poolleak makes.
package poolrelease_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/poolleak"
)

func TestPoolRelease(t *testing.T) {
	analysistest.RunSuite(t, "testdata", []*analysis.Analyzer{poolleak.Analyzer}, "netsim", "sprout")
}
