// Package analysis is a minimal, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis API surface, sized for this repository's
// determinism linters (cmd/verus-lint).
//
// Why not the real thing: the module is intentionally stdlib-only, and the
// x/tools framework is a large dependency for a suite this size: a table of
// forbidden imports and functions (package forbid), a map-range check and
// one dataflow check over a small CFG engine (package flow). The subset
// here keeps the same shape — an Analyzer with a Run function over a Pass
// carrying parsed files and type information — so the analyzers port to
// the upstream framework mechanically if the project ever takes the
// dependency.
//
// # Suppression directives
//
// A diagnostic can be suppressed with a directive comment on the flagged
// line or on the line immediately above it:
//
//	//lint:<analyzer> <claim> -- <reason>
//
// where <claim> is one of the analyzer's accepted Claims (e.g. maprange
// accepts "ordered-elsewhere") and <reason> is free text explaining why the
// claim holds at this site. The reason is mandatory: a suppression without a
// justification is itself reported as a violation, as is a directive naming
// an unknown analyzer or claim ("directive"), and so is a well-formed
// directive that suppressed nothing ("unusedsuppress"). See DESIGN.md §Lint
// for the grammar and the review bar for each claim.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"slices"
	"sort"
	"strings"
	"time"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and directives
	// (lowercase identifier).
	Name string
	// Doc is a one-paragraph description of what the analyzer forbids.
	Doc string
	// Claims are the directive keywords that may suppress this analyzer's
	// diagnostics (each still requires a reason).
	Claims []string
	// Run reports violations on the pass. Diagnostics suppressed by a
	// valid directive are dropped by the Pass, not by the analyzer.
	Run func(*Pass) error
}

// Diagnostic is one reported violation.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags []Diagnostic
	ix    *index
}

// Reportf records a diagnostic at pos unless a valid directive for this
// analyzer covers the line (or the line above).
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	if p.ix.suppress(p.Analyzer.Name, p.Fset.Position(pos)) {
		return
	}
	p.diags = append(p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run is the suite's one execution model, shared by verus-lint and
// analysistest. Over one type-checked package it runs the analyzers
// serially, in order, against one directive index; then it audits every
// //lint: directive once: a malformed one is reported under the
// pseudo-analyzer "directive", a well-formed one that suppressed nothing
// under "unusedsuppress". The diagnostics come back sorted, with each
// analyzer's elapsed time in the analyzers' order.
func Run(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer) ([]Diagnostic, []time.Duration, error) {
	ix := newIndex(fset, files, analyzers)
	var diags []Diagnostic
	elapsed := make([]time.Duration, len(analyzers))
	for i, a := range analyzers {
		start := time.Now()
		pass := &Pass{Analyzer: a, Fset: fset, Files: files, Pkg: pkg, TypesInfo: info, ix: ix}
		if err := a.Run(pass); err != nil {
			return nil, nil, fmt.Errorf("%s on %s: %v", a.Name, pkg.Path(), err)
		}
		diags = append(diags, pass.diags...)
		elapsed[i] = time.Since(start)
	}
	diags = append(diags, ix.audit()...)
	SortDiagnostics(fset, diags)
	return diags, elapsed, nil
}

// directive is one parsed //lint: comment.
type directive struct {
	pos                     token.Pos
	analyzer, claim, reason string
	raw                     string // the comment text, for messages
	// problem says why the directive may not suppress anything under
	// the suite; empty for a well-formed directive.
	problem string
	used    bool // it suppressed at least one diagnostic
}

// directiveRe matches "//lint:<analyzer> <claim> -- <reason>"; the reason
// part is optional at parse time so validation can demand it with a precise
// message.
var directiveRe = regexp.MustCompile(`^//lint:([a-z][a-z0-9]*)\s+([A-Za-z0-9-]+)\s*(?:--\s*(.*\S))?\s*$`)

// index holds one package's //lint: directives, each parsed and
// validated against the suite once, by filename and line.
type index struct {
	byLine map[string]map[int][]*directive
	all    []*directive // source order
}

// newIndex parses and validates every //lint: comment in the files.
func newIndex(fset *token.FileSet, files []*ast.File, analyzers []*Analyzer) *index {
	ix := &index{byLine: map[string]map[int][]*directive{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, "//lint:") {
					continue
				}
				d := parseDirective(c)
				d.problem = d.validate(analyzers)
				pos := fset.Position(c.Pos())
				byLine := ix.byLine[pos.Filename]
				if byLine == nil {
					byLine = map[int][]*directive{}
					ix.byLine[pos.Filename] = byLine
				}
				byLine[pos.Line] = append(byLine[pos.Line], d)
				ix.all = append(ix.all, d)
			}
		}
	}
	return ix
}

// suppress reports whether a well-formed directive for the analyzer
// covers pos (the flagged line or the line above), marking it used.
func (ix *index) suppress(analyzer string, pos token.Position) bool {
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, d := range ix.byLine[pos.Filename][line] {
			if d.analyzer == analyzer && d.problem == "" {
				d.used = true
				return true
			}
		}
	}
	return false
}

// audit reports, in source order, every malformed directive and every
// well-formed one that suppressed no diagnostic: suppression debt that
// would silently pre-forgive a future regression on its line.
func (ix *index) audit() []Diagnostic {
	var diags []Diagnostic
	for _, d := range ix.all {
		switch {
		case d.problem != "":
			diags = append(diags, Diagnostic{Pos: d.pos, Analyzer: "directive", Message: d.problem})
		case !d.used:
			diags = append(diags, Diagnostic{Pos: d.pos, Analyzer: "unusedsuppress", Message: fmt.Sprintf(
				"suppression %q matches no diagnostic: the code it excused is fixed or gone; delete the directive",
				strings.TrimSpace(d.raw))})
		}
	}
	return diags
}

// parseDirective decodes one //lint: comment; an unparsable comment yields a
// directive with empty analyzer, which validate rejects. A trailing
// "// want" clause is ignored so analysistest fixtures can assert on the
// directive's own line.
func parseDirective(c *ast.Comment) *directive {
	text := c.Text
	if i := strings.Index(text, "// want "); i > 0 {
		text = strings.TrimSpace(text[:i])
	}
	m := directiveRe.FindStringSubmatch(text)
	if m == nil {
		return &directive{pos: c.Pos(), raw: text}
	}
	return &directive{pos: c.Pos(), analyzer: m[1], claim: m[2], reason: m[3], raw: text}
}

// validate checks the directive against the analyzer set: the named
// analyzer must exist, the claim must be one the analyzer accepts, and the
// reason must be non-empty. It returns the problem, or "" if there is none.
func (d *directive) validate(analyzers []*Analyzer) string {
	i := slices.IndexFunc(analyzers, func(a *Analyzer) bool { return a.Name == d.analyzer })
	switch {
	case d.analyzer == "":
		return fmt.Sprintf("malformed lint directive %q: want //lint:<analyzer> <claim> -- <reason>", d.raw)
	case i < 0:
		return fmt.Sprintf("lint directive names unknown analyzer %q", d.analyzer)
	case !slices.Contains(analyzers[i].Claims, d.claim):
		return fmt.Sprintf("analyzer %s does not accept claim %q (accepted: %s)",
			d.analyzer, d.claim, strings.Join(analyzers[i].Claims, ", "))
	case d.reason == "":
		return fmt.Sprintf("lint directive %q is missing its justification: append ` -- <reason>`", strings.TrimSpace(d.raw))
	}
	return ""
}

// SortDiagnostics orders diagnostics by file, line, column, then analyzer —
// the deterministic output order of verus-lint.
func SortDiagnostics(fset *token.FileSet, diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
}

// PkgSymbol resolves a selector expression to (package path, symbol name)
// when its receiver is an imported package name — e.g. time.Now →
// ("time", "Now"). ok is false for method selectors and field accesses.
func PkgSymbol(info *types.Info, sel *ast.SelectorExpr) (pkgPath, name string, ok bool) {
	id, isIdent := sel.X.(*ast.Ident)
	if !isIdent {
		return "", "", false
	}
	pn, isPkg := info.Uses[id].(*types.PkgName)
	if !isPkg {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}
