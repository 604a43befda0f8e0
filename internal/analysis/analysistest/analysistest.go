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

// RunSuite analyzes each fixture package under testdata/src with
// analysis.Run, the driver's own execution model, and checks the
// diagnostics, directive audit included, against the fixtures' want
// comments.
func RunSuite(t *testing.T, testdata string, analyzers []*analysis.Analyzer, pkgs ...string) {
	t.Helper()
	fset := token.NewFileSet()
	for _, pkg := range pkgs {
		loaded, err := load.Dir(fset, pkg, filepath.Join(testdata, "src", pkg))
		if err != nil {
			t.Fatalf("loading fixture %s: %v", pkg, err)
		}
		diags, _, err := analysis.Run(fset, loaded.Files, loaded.Types, loaded.Info, analyzers)
		if err != nil {
			t.Fatal(err)
		}
		checkWants(t, fset, pkg, loaded.Files, diags)
	}
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
