// Package nowalltime_test holds the fixtures of the nowalltime analyzer, a
// row of the forbid table. The whole table runs over them, so they also pin
// that no other row fires there.
package nowalltime_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/forbid"
)

func TestNoWallTime(t *testing.T) {
	analysistest.RunSuite(t, "testdata", forbid.Analyzers(), "netsim", "obs", "clocktool")
}
