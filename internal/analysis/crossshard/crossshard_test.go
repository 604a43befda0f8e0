package crossshard_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/crossshard"
)

func TestCrossShard(t *testing.T) {
	analysistest.RunSuite(t, "testdata", []*analysis.Analyzer{crossshard.Analyzer}, "netsim")
}
