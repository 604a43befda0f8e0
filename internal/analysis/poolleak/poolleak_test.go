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
