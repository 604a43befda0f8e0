// Package noglobalrand_test holds the fixtures of the noglobalrand analyzer,
// two rows of the forbid table. The whole table runs over them: the
// clock-seeded source in cellular/bad.go is nowalltime's to report.
package noglobalrand_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/forbid"
)

func TestNoGlobalRand(t *testing.T) {
	analysistest.RunSuite(t, "testdata", forbid.Analyzers(),
		"cellular", "experiments", "randtool")
}
