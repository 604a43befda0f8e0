package maprange_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/maprange"
)

func TestMapRange(t *testing.T) {
	analysistest.RunSuite(t, "testdata", []*analysis.Analyzer{maprange.Analyzer}, "verus", "obs", "maptool")
}
