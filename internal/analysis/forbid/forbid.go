// Package forbid holds the forbidden-API lints as one table. Each row says:
// in packages whose import path matches these segments, this import, or
// these package-level functions of one package, may not appear. Analyzers
// builds one analyzer per row name — nowalltime, noglobalrand,
// nofaultsinprod and floatorder — so every name keeps its own claim and
// its own //lint: directives.
//
// Test files are outside the analyzed set, as with every verus-lint pass:
// tests and benchmarks legitimately read wall clocks, draw from the global
// RNG and inject faults.
package forbid

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"

	"repro/internal/analysis"
)

// rule is one row of the table.
type rule struct {
	name  string // analyzer name; rows sharing a name are adjacent
	claim string // the one directive claim that suppresses the analyzer
	doc   string // what the row forbids; an analyzer's Doc joins its rows'
	// in selects the packages the row governs by import path (nil: every
	// package); except, if set, takes some of them out again.
	in, except *regexp.Regexp
	// pkg matches the forbidden import path or, when funcs is set, the
	// package whose functions are forbidden.
	pkg *regexp.Regexp
	// funcs names the forbidden package-level functions of pkg; with
	// allBut set it names the only ones allowed. Nil forbids the import.
	funcs  map[string]bool
	allBut bool
	// format is the diagnostic: %[1]s is the offending package's path,
	// %[2]s the import path or the function name.
	format string
}

var (
	simPkgs  = analysis.PathRe(analysis.SimPkgs)
	mathRand = regexp.MustCompile(`^math/rand(/v2)?$`)
)

var rules = []rule{
	// Simulation time flows from netsim.Sim, so every run replays its seed
	// exactly; one host-clock read or timer makes output depend on machine
	// load. Types and constants of package time (time.Duration,
	// time.Millisecond) stay legal. The real-UDP transport reads the host
	// clock in internal/transport/clock.go alone, under the real-time claim.
	{
		name:   "nowalltime",
		claim:  "real-time",
		doc:    "forbid host-clock reads and timers (time.Now, time.Since, time.Sleep, tickers) in simulation and transport packages, where only virtual time is deterministic",
		in:     analysis.PathRe(analysis.SimPkgs + "|transport"),
		pkg:    regexp.MustCompile(`^time$`),
		funcs:  set("Now", "Since", "Until", "Sleep", "After", "AfterFunc", "Tick", "NewTicker", "NewTimer"),
		format: "time.%[2]s reads the host clock; simulation code must take time from netsim.Sim",
	},
	// Every RNG must be a pure function of a seed the experiment runner
	// derives (runner.DeriveSeed). The top-level math/rand functions draw
	// from the process-global source, shared across goroutines and, since
	// Go 1.20, seeded randomly at startup. Explicitly seeded construction
	// stays legal in the leaf simulation packages, which take seeds as
	// parameters. A source seeded from the wall clock needs a time.Now,
	// which nowalltime already forbids in every package this row governs.
	{
		name:   "noglobalrand",
		claim:  "derived-seed",
		doc:    "forbid the global math/rand source in simulation packages",
		in:     simPkgs,
		pkg:    mathRand,
		funcs:  set("New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8"),
		allBut: true,
		format: "rand.%[2]s uses the global math/rand source; construct an explicitly seeded *rand.Rand instead",
	},
	// Harness randomness comes from the runner's derivation path
	// (runner.NewRand) so the seed plan stays auditable in one place.
	{
		name:   "noglobalrand",
		claim:  "derived-seed",
		doc:    "forbid any math/rand import in the experiment harnesses but experiments/runner; every RNG must be a pure function of an explicit seed",
		in:     analysis.PathRe("experiments"),
		except: analysis.PathRe("experiments/runner"),
		pkg:    mathRand,
		format: "experiment harnesses must not import %[2]s directly; derive RNGs from the trial seed via runner.NewRand",
	},
	// Fault plans are wired around a link by the experiment harness,
	// verus-bench or a test, never into the simulator core, a controller or
	// the transport: a production import would let impairment logic leak
	// into the datapath being measured and, since the layer consumes seeded
	// randomness, widen the determinism surface of every package linking it.
	{
		name:   "nofaultsinprod",
		claim:  "sim-only",
		doc:    "forbid importing the fault-injection layer (internal/faults) outside the experiment harness, verus-bench, and tests",
		except: analysis.PathRe("faults|experiments|cmd/verus-bench"),
		pkg:    analysis.PathRe("faults"),
		format: "package %[1]s imports the fault-injection layer %[2]s; faults are wired in only by the experiment harness, verus-bench, or tests",
	},
	// The golden digests pin every float that reaches a render. math.FMA
	// fuses a*b + c into one rounding and so changes the low bits. Float
	// accumulation in map order is maprange's: it flags every such range.
	{
		name:   "floatorder",
		claim:  "order-invariant",
		doc:    "forbid math.FMA in golden-digest packages, where the separate roundings of a*b + c are contractual",
		in:     simPkgs,
		pkg:    regexp.MustCompile(`^math$`),
		funcs:  set("FMA"),
		format: "math.%[2]s fuses the multiply-add rounding; digest-fed expressions must keep the separate a*b + c roundings",
	},
}

func set(names ...string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}

var analyzers = build()

// build makes one analyzer per run of same-named rows.
func build() []*analysis.Analyzer {
	var out []*analysis.Analyzer
	for _, r := range rules {
		if n := len(out); n > 0 && out[n-1].Name == r.name {
			out[n-1].Doc += "; " + r.doc
			continue
		}
		out = append(out, &analysis.Analyzer{Name: r.name, Doc: r.doc, Claims: []string{r.claim}, Run: run})
	}
	return out
}

// Analyzers returns the table's analyzers in table order.
func Analyzers() []*analysis.Analyzer {
	return append([]*analysis.Analyzer(nil), analyzers...)
}

// governs reports whether the row applies to the package at path.
func (r *rule) governs(path string) bool {
	return (r.in == nil || r.in.MatchString(path)) && (r.except == nil || !r.except.MatchString(path))
}

// run checks the pass's package against every row named for its analyzer.
func run(pass *analysis.Pass) error {
	path := pass.Pkg.Path()
	var rows []*rule
	for i := range rules {
		if r := &rules[i]; r.name == pass.Analyzer.Name && r.governs(path) {
			rows = append(rows, r)
		}
	}
	if len(rows) == 0 {
		return nil
	}
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			for _, r := range rows {
				if r.funcs == nil && r.pkg.MatchString(p) {
					pass.Reportf(imp.Pos(), r.format, path, p)
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg, name, ok := analysis.PkgSymbol(pass.TypesInfo, sel)
			if !ok {
				return true
			}
			if _, isFunc := pass.TypesInfo.Uses[sel.Sel].(*types.Func); !isFunc {
				return true
			}
			for _, r := range rows {
				if r.funcs != nil && r.pkg.MatchString(pkg) && r.funcs[name] != r.allBut {
					pass.Reportf(sel.Pos(), r.format, path, name)
				}
			}
			return true
		})
	}
	return nil
}
