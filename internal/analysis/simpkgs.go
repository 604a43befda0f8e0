package analysis

import "regexp"

// The determinism contract (DESIGN.md §Lint, §Experiments) applies to the
// packages that run inside a netsim.Sim event loop: everything a simulated
// experiment executes must be a pure function of its derived seed. The
// analyzers match packages by path segment so the same rules apply to the
// repository's import paths (repro/internal/netsim) and to analysistest
// fixtures (plain "netsim").

// SimPkgs names the simulation packages as path segments: the simulator
// core, the channel models, every controller, the fault-injection layer,
// the observability layer (events carry virtual time and metric snapshots
// feed rendered output, so it is bound by the same contract), the
// checkpoint layer, and the experiment harnesses (including their
// subpackages, e.g. experiments/runner).
const SimPkgs = "netsim|cellular|verus|tcp|sprout|experiments|predictor|faults|obs|snap"

// PathRe matches import paths that contain one of the |-separated
// alternatives as whole path segments.
func PathRe(alts string) *regexp.Regexp {
	return regexp.MustCompile(`(^|/)(` + alts + `)(/|$)`)
}

var simPkgRe = PathRe(SimPkgs)

// IsSimPackage reports whether the import path is under the simulation
// determinism contract.
func IsSimPackage(path string) bool { return simPkgRe.MatchString(path) }
