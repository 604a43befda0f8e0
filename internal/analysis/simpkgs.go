package analysis

import (
	"go/types"
	"regexp"
)

// The determinism contract (DESIGN.md §12, §13) applies to the packages that run
// inside a netsim.Sim event loop: everything a simulated experiment
// executes must be a pure function of its derived seed. The analyzers match
// packages by path segment so the same rules apply to the repository's
// import paths (repro/internal/netsim) and to analysistest fixtures
// (plain "netsim").

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

var (
	simPkgRe = PathRe(SimPkgs)
	// netsimPkgRe matches the simulator core package, whose Packet type is
	// pooled (DESIGN.md §8).
	netsimPkgRe = PathRe("netsim")
)

// IsSimPackage reports whether the import path is under the simulation
// determinism contract.
func IsSimPackage(path string) bool { return simPkgRe.MatchString(path) }

// IsNetsimType reports whether t is the named type called name that the
// simulator core defines, such as its Sim or its pooled Packet.
func IsNetsimType(t types.Type, name string) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && netsimPkgRe.MatchString(obj.Pkg().Path())
}
