// Package nofaultsinprod_test holds the fixtures of the nofaultsinprod
// analyzer, a row of the forbid table. The whole table runs over them, so
// they also pin that no other row fires there.
package nofaultsinprod_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/forbid"
)

func TestNoFaultsInProd(t *testing.T) {
	analysistest.RunSuite(t, "testdata", forbid.Analyzers(),
		"transport", "experiments")
}
