package unusedsuppress_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/poolleak"
)

// TestUnusedSuppress checks analysis.Run's directive audit: of the
// fixture's two poolleak directives, only the one that suppresses nothing
// is reported.
func TestUnusedSuppress(t *testing.T) {
	analysistest.RunSuite(t, "testdata", []*analysis.Analyzer{poolleak.Analyzer}, "netsim")
}
