// Command verus-lint statically enforces the repository's determinism,
// purity, and ownership contracts (DESIGN.md §9, §14). It runs the
// internal/analysis suite — crossshard, floatorder, maprange,
// nofaultsinprod, noglobalrand, nowalltime, poolleak, unusedsuppress;
// floatorder, nofaultsinprod, noglobalrand and nowalltime are the rows of
// one forbidden-API table (internal/analysis/forbid) — over the given
// package patterns and exits non-zero on
// any violation, including malformed or stale //lint: suppression
// directives (reported by the "directive" pseudo-analyzer). The list
// above mirrors all.Analyzers(); TestDocCommentListsAllAnalyzers keeps
// it honest.
//
// Ordinary analyzers run concurrently, one goroutine per analyzer over a
// single shared package load; AfterSuite analyzers (unusedsuppress) run
// once the rest have finished, because they read the suppression hits
// the others recorded. Output order is deterministic regardless.
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
	"sync"
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
		fmt.Fprintf(flag.CommandLine.Output(), "usage: verus-lint [-C dir] [-sarif file] [-timing] [packages...]\n\n")
		fmt.Fprintf(flag.CommandLine.Output(), "Analyzers:\n")
		for _, a := range all.Analyzers() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-14s %s\n", a.Name, a.Doc)
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
	for _, d := range res.Diags {
		fmt.Fprintf(os.Stdout, "%s: [%s] %s\n", res.Fset.Position(d.Pos), d.Analyzer, d.Message)
	}
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

// Lint runs the suite and prints diagnostics to w in deterministic
// order, returning the count. It is the single-writer convenience the
// tests (and older callers) use; Run is the full-fat entry point.
func Lint(w io.Writer, dir string, patterns []string, analyzers []*analysis.Analyzer) (int, error) {
	res, err := Run(dir, patterns, analyzers)
	if err != nil {
		return 0, err
	}
	for _, d := range res.Diags {
		fmt.Fprintf(w, "%s: [%s] %s\n", res.Fset.Position(d.Pos), d.Analyzer, d.Message)
	}
	return len(res.Diags), nil
}

// Run loads the patterns once, runs every ordinary analyzer in its own
// goroutine over the shared load, then runs AfterSuite analyzers against
// the accumulated suppression state, and finally validates directives.
// Diagnostics are merged and sorted, so the output is identical to a
// serial run.
func Run(dir string, patterns []string, analyzers []*analysis.Analyzer) (*Result, error) {
	pkgs, fset, err := load.Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	// One shared directive index per package: every analyzer's pass over
	// pkgs[i] records suppression hits in indexes[i], which is what lets
	// unusedsuppress see the whole suite's usage afterwards.
	indexes := make([]*analysis.Index, len(pkgs))
	for i, pkg := range pkgs {
		indexes[i] = analysis.NewIndex(fset, pkg.Files)
	}

	perAnalyzer := make([][]analysis.Diagnostic, len(analyzers))
	timing := make([]time.Duration, len(analyzers))
	errs := make([]error, len(analyzers))
	runOne := func(i int, a *analysis.Analyzer) {
		start := time.Now()
		for pi, pkg := range pkgs {
			pass := analysis.NewPassShared(a, fset, pkg.Files, pkg.Types, pkg.Info, indexes[pi])
			if err := a.Run(pass); err != nil {
				errs[i] = fmt.Errorf("%s on %s: %v", a.Name, pkg.Path, err)
				return
			}
			perAnalyzer[i] = append(perAnalyzer[i], pass.Diagnostics()...)
		}
		timing[i] = time.Since(start)
	}

	var wg sync.WaitGroup
	for i, a := range analyzers {
		if a.AfterSuite {
			continue
		}
		wg.Add(1)
		go func(i int, a *analysis.Analyzer) {
			defer wg.Done()
			runOne(i, a)
		}(i, a)
	}
	wg.Wait()
	for i, a := range analyzers {
		if a.AfterSuite {
			runOne(i, a)
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	var diags []analysis.Diagnostic
	for _, d := range perAnalyzer {
		diags = append(diags, d...)
	}
	for _, pkg := range pkgs {
		diags = append(diags, analysis.CheckDirectives(fset, pkg.Files, analyzers)...)
	}
	analysis.SortDiagnostics(fset, diags)
	res := &Result{Fset: fset, Diags: diags}
	for i, a := range analyzers {
		res.Timing = append(res.Timing, AnalyzerTiming{Name: a.Name, Elapsed: timing[i]})
	}
	return res, nil
}
