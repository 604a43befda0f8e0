// Package floatorder_test holds the fixtures of the floatorder analyzer, the
// math.FMA row of the forbid table. The whole table runs over them, so they
// also pin that no other row fires there; float sums over map ranges are
// maprange's to report.
package floatorder_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/forbid"
)

func TestFloatOrder(t *testing.T) {
	analysistest.RunSuite(t, "testdata", forbid.Analyzers(), "experiments", "mathtool")
}
