// Package all registers the verus-lint analyzer suite in one place, so the
// multichecker binary and the repository smoke test run the identical set.
package all

import (
	"sort"

	"repro/internal/analysis"
	"repro/internal/analysis/crossshard"
	"repro/internal/analysis/forbid"
	"repro/internal/analysis/maprange"
	"repro/internal/analysis/poolleak"
)

// Analyzers returns the full suite sorted by name.
func Analyzers() []*analysis.Analyzer {
	as := append(forbid.Analyzers(),
		crossshard.Analyzer,
		maprange.Analyzer,
		poolleak.Analyzer,
	)
	sort.Slice(as, func(i, j int) bool { return as[i].Name < as[j].Name })
	return as
}
