package analysis

// FuzzDirectiveParser hammers the //lint: grammar with hostile comment
// text — malformed analyzer names, missing "--" reason separators,
// multi-directive lines, stray whitespace. Two properties are pinned:
//
//  1. parseDirective never panics and parses all-or-nothing: a directive
//     either carries an analyzer and a claim or carries neither.
//  2. The directive audit's classification: a comment starting //lint:
//     yields exactly one diagnostic — "directive" (verus-lint exit 2) if
//     it is malformed against the analyzer set, "unusedsuppress" (exit 1)
//     if it is well-formed, since nothing in the file is there for it to
//     suppress — and any other comment yields none. A malformed
//     suppression can therefore never pass silently or masquerade as an
//     ordinary violation.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func FuzzDirectiveParser(f *testing.F) {
	for _, seed := range []string{
		"//lint:nowalltime real-time -- the pacing loop reads the wall clock",
		"//lint:",
		"//lint:noglobalrand seeded",
		"//lint:poolrelease pool-internal --",
		"//lint:Bad_Name claim -- reason",
		"//lint:unknownanalyzer claim -- reason",
		"//lint:nowalltime wrong-claim -- reason",
		"//lint:a b -- c // want `x`",
		"//lint:one x -- r //lint:two y -- r",
		"// plain comment",
		"//lint:nowalltime real-time--missing spaces",
		"//lint:nowalltime   real-time   --   padded   ",
	} {
		f.Add(seed)
	}
	checkers := []*Analyzer{
		{Name: "nowalltime", Doc: "fuzz stand-in", Claims: []string{"real-time"}},
		{Name: "poolrelease", Doc: "fuzz stand-in", Claims: []string{"pool-internal"}},
	}
	f.Fuzz(func(t *testing.T, text string) {
		d := parseDirective(&ast.Comment{Slash: 1, Text: text})
		if d.analyzer == "" && d.claim != "" {
			t.Fatalf("partial parse of %q: claim %q without analyzer", text, d.claim)
		}
		if d.analyzer != "" && d.claim == "" {
			t.Fatalf("partial parse of %q: analyzer %q without claim", text, d.analyzer)
		}

		// The classification pin needs the text to survive as a real
		// one-line comment in a source file.
		if strings.ContainsAny(text, "\n\r") || !strings.HasPrefix(text, "//") {
			return
		}
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, "fuzz.go", "package p\n"+text+"\n", parser.ParseComments)
		if err != nil {
			return
		}
		diags := newIndex(fset, []*ast.File{file}, checkers).audit()
		if !strings.HasPrefix(text, "//lint:") {
			if len(diags) > 0 {
				t.Fatalf("non-directive comment %q produced %d diagnostic(s)", text, len(diags))
			}
			return
		}
		want := "unusedsuppress"
		if d.validate(checkers) != "" {
			want = "directive"
		}
		if len(diags) != 1 || diags[0].Analyzer != want {
			t.Fatalf("directive %q (%+v): audit gave %+v, want one %q diagnostic", text, d, diags, want)
		}
		if want == "unusedsuppress" && (d.analyzer == "" || d.reason == "") {
			t.Fatalf("malformed directive %q passed validation: %+v", text, d)
		}
	})
}
