package unusedsuppress_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/poolleak"
	"repro/internal/analysis/unusedsuppress"
)

func TestUnusedSuppress(t *testing.T) {
	analysistest.RunSuite(t, "testdata",
		[]*analysis.Analyzer{poolleak.Analyzer, unusedsuppress.Analyzer},
		"netsim")
}
