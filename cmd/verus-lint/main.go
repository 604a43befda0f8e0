// Command verus-lint statically enforces the repository's determinism,
// purity, and ownership contracts (DESIGN.md §12). It runs the
// internal/analysis suite — crossshard, floatorder, maprange,
// nofaultsinprod, noglobalrand, nowalltime, poolleak; floatorder,
// nofaultsinprod, noglobalrand and nowalltime are the rows of one
// forbidden-API table (internal/analysis/forbid) — over the given package
// patterns and exits non-zero on any violation. The list above mirrors
// all.Analyzers(); TestDocCommentListsAllAnalyzers keeps it honest.
//
// Each package is loaded once and checked by analysis.Run: the analyzers
// run serially, in order, then every //lint: directive is audited once. A
// malformed directive is reported as the "directive" pseudo-analyzer, a
// well-formed one that suppressed nothing as "unusedsuppress". Output
// order is deterministic.
//
// Usage:
//
//	verus-lint [-C dir] [-sarif file] [-timing] [packages...]
//
// With no patterns it lints ./.... -sarif writes a SARIF 2.1.0 report to
// the given file ("-" for stdout) for code-scanning upload; -timing
// prints per-analyzer wall time to stderr. Exit status: 0 clean, 1
// violations found, 2 operational error (unloadable packages, bad flags,
// malformed //lint: directives — a broken suppression means the run's
// verdict cannot be trusted, so it ranks as a configuration error).
package main

import (
	"flag"
	"fmt"
	"go/token"
	"io"
	"os"
	"time"

	"repro/internal/analysis"
	"repro/internal/analysis/all"
	"repro/internal/analysis/load"
)

func main() {
	dir := flag.String("C", ".", "directory to resolve package patterns in")
	sarifPath := flag.String("sarif", "", "write a SARIF 2.1.0 report to this file (\"-\" for stdout)")
	timing := flag.Bool("timing", false, "print per-analyzer wall time to stderr")
	flag.Usage = func() {
		out := flag.CommandLine.Output()
		fmt.Fprintf(out, "usage: verus-lint [-C dir] [-sarif file] [-timing] [packages...]\n\n")
		fmt.Fprintf(out, "Analyzers:\n")
		for _, a := range all.Analyzers() {
			fmt.Fprintf(out, "  %-14s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(out, "Directive audit (after the analyzers, per package):\n")
		for _, r := range auditRules {
			fmt.Fprintf(out, "  %-14s %s\n", r.ID, r.ShortDescription.Text)
		}
		flag.PrintDefaults()
	}
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	res, err := Run(*dir, patterns, all.Analyzers())
	if err != nil {
		fmt.Fprintf(os.Stderr, "verus-lint: %v\n", err)
		os.Exit(2)
	}
	writeDiags(os.Stdout, res)
	if *timing {
		for _, tm := range res.Timing {
			fmt.Fprintf(os.Stderr, "verus-lint: timing %-16s %7.1fms\n", tm.Name, float64(tm.Elapsed)/float64(time.Millisecond))
		}
	}
	if *sarifPath != "" {
		if err := emitSARIF(*sarifPath, res); err != nil {
			fmt.Fprintf(os.Stderr, "verus-lint: %v\n", err)
			os.Exit(2)
		}
	}
	if len(res.Diags) > 0 {
		fmt.Fprintf(os.Stderr, "verus-lint: %d violation(s)\n", len(res.Diags))
		os.Exit(exitCode(res.Diags))
	}
}

// writeDiags prints one "position: [analyzer] message" line per diagnostic.
func writeDiags(w io.Writer, res *Result) {
	for _, d := range res.Diags {
		fmt.Fprintf(w, "%s: [%s] %s\n", res.Fset.Position(d.Pos), d.Analyzer, d.Message)
	}
}

// exitCode maps a non-empty diagnostic set to the binary's exit status.
// Ordinary violations exit 1. Diagnostics from the "directive"
// pseudo-analyzer mean a //lint: suppression is malformed — the
// machinery that decides what the suite may ignore is itself broken —
// so they rank with the other operational failures at exit 2.
func exitCode(diags []analysis.Diagnostic) int {
	for _, d := range diags {
		if d.Analyzer == "directive" {
			return 2
		}
	}
	return 1
}

func emitSARIF(path string, res *Result) error {
	w := io.Writer(os.Stdout)
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return WriteSARIF(w, res.Fset, all.Analyzers(), res.Diags)
}

// AnalyzerTiming is one analyzer's wall time across every package.
type AnalyzerTiming struct {
	Name    string
	Elapsed time.Duration
}

// Result is one lint invocation's outcome: diagnostics in deterministic
// order plus per-analyzer timing in suite order.
type Result struct {
	Fset   *token.FileSet
	Diags  []analysis.Diagnostic
	Timing []AnalyzerTiming
}

// Run loads the patterns once and runs the suite over each package with
// analysis.Run, which audits the //lint: directives as well. Diagnostics
// are sorted across packages; each analyzer's time is summed over them.
func Run(dir string, patterns []string, analyzers []*analysis.Analyzer) (*Result, error) {
	pkgs, fset, err := load.Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	res := &Result{Fset: fset}
	for _, a := range analyzers {
		res.Timing = append(res.Timing, AnalyzerTiming{Name: a.Name})
	}
	for _, pkg := range pkgs {
		diags, elapsed, err := analysis.Run(fset, pkg.Files, pkg.Types, pkg.Info, analyzers)
		if err != nil {
			return nil, err
		}
		res.Diags = append(res.Diags, diags...)
		for i, d := range elapsed {
			res.Timing[i].Elapsed += d
		}
	}
	analysis.SortDiagnostics(fset, res.Diags)
	return res, nil
}
