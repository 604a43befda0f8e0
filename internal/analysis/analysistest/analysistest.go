// Package analysistest runs analyzers over fixture packages and checks
// their diagnostics against // want comments, mirroring the conventions of
// golang.org/x/tools/go/analysis/analysistest on top of the in-repo
// framework.
//
// Fixtures live under <testdata>/src/<pkg>/ and are plain Go files outside
// the module's package graph (testdata directories are invisible to go
// list). A line expecting one or more diagnostics carries a trailing
// comment:
//
//	rate := rand.Float64() // want `global math/rand`
//
// Each backquoted string is a regexp that must match exactly one diagnostic
// reported on that line; diagnostics with no matching want, and wants with
// no matching diagnostic, fail the test. A fixture package with no want
// comments asserts the analyzer is silent on it.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/load"
)

// wantRe matches one backquoted expectation inside a // want comment.
var wantRe = regexp.MustCompile("`([^`]+)`")

// RunSuite analyzes each fixture package under testdata/src with the
// analyzers sharing one directive index per package — the driver's own
// execution model, so AfterSuite analyzers (unusedsuppress) see the
// suppression hits the ordinary analyzers recorded. Ordinary analyzers run
// first, AfterSuite ones last; diagnostics from all of them plus directive
// validation are checked against the fixtures' want comments together.
func RunSuite(t *testing.T, testdata string, analyzers []*analysis.Analyzer, pkgs ...string) {
	t.Helper()
	fset := token.NewFileSet()
	for _, pkg := range pkgs {
		dir := filepath.Join(testdata, "src", pkg)
		loaded, err := loadFixture(fset, pkg, dir)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", pkg, err)
		}
		ix := analysis.NewIndex(fset, loaded.Files)
		var diags []analysis.Diagnostic
		runOne := func(a *analysis.Analyzer) {
			pass := analysis.NewPassShared(a, fset, loaded.Files, loaded.Types, loaded.Info, ix)
			if err := a.Run(pass); err != nil {
				t.Fatalf("%s on %s: %v", a.Name, pkg, err)
			}
			diags = append(diags, pass.Diagnostics()...)
		}
		for _, a := range analyzers {
			if !a.AfterSuite {
				runOne(a)
			}
		}
		for _, a := range analyzers {
			if a.AfterSuite {
				runOne(a)
			}
		}
		diags = append(diags, analysis.CheckDirectives(fset, loaded.Files, analyzers)...)
		checkWants(t, fset, pkg, loaded.Files, diags)
	}
}

// loadFixture type-checks one fixture directory against the stdlib packages
// its files import.
func loadFixture(fset *token.FileSet, pkg, dir string) (*load.Package, error) {
	imports, err := fixtureImports(dir)
	if err != nil {
		return nil, err
	}
	imp, err := load.StdImporter(fset, dir, imports...)
	if err != nil {
		return nil, err
	}
	return load.CheckDir(fset, imp, pkg, dir)
}

// fixtureImports collects the import paths of every fixture file so the
// std importer can be scoped to exactly what the fixture needs.
func fixtureImports(dir string) ([]string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(matches) == 0 {
		return nil, fmt.Errorf("no fixture files in %s: %v", dir, err)
	}
	seen := map[string]bool{}
	var out []string
	fset := token.NewFileSet()
	for _, m := range matches {
		f, err := parserImportsOnly(fset, m)
		if err != nil {
			return nil, err
		}
		for _, spec := range f.Imports {
			path := strings.Trim(spec.Path.Value, `"`)
			if !seen[path] {
				seen[path] = true
				out = append(out, path)
			}
		}
	}
	if len(out) == 0 {
		// go list needs at least one root; "errors" is a tiny stdlib leaf.
		out = append(out, "errors")
	}
	return out, nil
}

// parserImportsOnly parses just the import clause of one file.
func parserImportsOnly(fset *token.FileSet, path string) (*ast.File, error) {
	return parser.ParseFile(fset, path, nil, parser.ImportsOnly)
}

// expectation is one want regexp and whether a diagnostic matched it.
type expectation struct {
	pos     string
	re      *regexp.Regexp
	matched bool
}

// checkWants cross-references diagnostics with // want comments.
func checkWants(t *testing.T, fset *token.FileSet, pkg string, files []*ast.File, diags []analysis.Diagnostic) {
	t.Helper()
	wants := map[string][]*expectation{} // "file:line" → expectations
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				idx := strings.Index(c.Text, "// want ")
				if idx < 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				for _, m := range wantRe.FindAllStringSubmatch(c.Text[idx:], -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", key, m[1], err)
					}
					wants[key] = append(wants[key], &expectation{pos: key, re: re})
				}
			}
		}
	}
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
		found := false
		for _, w := range wants[key] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s (%s): unexpected diagnostic: %s", key, pkg, d.Message)
		}
	}
	for _, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s (%s): expected diagnostic matching %q, got none", w.pos, pkg, w.re)
			}
		}
	}
}
