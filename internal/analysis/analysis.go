// Package analysis is a minimal, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis API surface, sized for this repository's
// determinism linters (cmd/verus-lint).
//
// Why not the real thing: the module is intentionally stdlib-only, and the
// x/tools framework is a large dependency for a suite this size: a table of
// forbidden imports and functions (package forbid), a map-range check, two
// dataflow checks over a small CFG engine (package flow) and a
// stale-suppression check. The subset here keeps the same shape — an
// Analyzer with a Run function over a Pass carrying parsed files and type
// information — so the analyzers port to the upstream framework
// mechanically if the project ever takes the dependency.
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
// an unknown analyzer or claim. See DESIGN.md §9 for the grammar and the
// review bar for each claim.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
	"sync"
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
	// AfterSuite marks a suite-level analyzer: the driver runs it only
	// after every ordinary analyzer has finished its pass over the
	// package, against the same shared Index, so its Run can observe
	// which suppression directives actually fired (unusedsuppress).
	AfterSuite bool
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

	diags      []Diagnostic
	directives *Index
}

// NewPassShared assembles a pass against a caller-owned directive index,
// shared by every analyzer in a suite over the same package. Sharing is
// what lets suppression usage accumulate across passes — the raw material
// of the unusedsuppress analyzer — and the index is safe for the driver's
// one-goroutine-per-analyzer parallelism.
func NewPassShared(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, ix *Index) *Pass {
	ix.register(a)
	return &Pass{
		Analyzer:   a,
		Fset:       fset,
		Files:      files,
		Pkg:        pkg,
		TypesInfo:  info,
		directives: ix,
	}
}

// SuiteIndex returns the directive index this pass consults, shared with
// every other pass over the same package.
func (p *Pass) SuiteIndex() *Index { return p.directives }

// Reportf records a diagnostic at pos unless a valid directive for this
// analyzer covers the line (or the line above).
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.suppressed(position) {
		return
	}
	p.diags = append(p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostics returns the pass's surviving diagnostics in source order.
func (p *Pass) Diagnostics() []Diagnostic {
	SortDiagnostics(p.Fset, p.diags)
	return p.diags
}

// suppressed reports whether a well-formed directive for this analyzer
// covers the given position, marking the directive used in the index.
// Malformed directives never suppress; they are themselves flagged by
// CheckDirectives.
func (p *Pass) suppressed(pos token.Position) bool {
	return p.directives.suppress(p.Analyzer, pos)
}

// Directive is one parsed //lint: comment.
type Directive struct {
	Pos      token.Pos
	Analyzer string
	Claim    string
	Reason   string
	// Raw is the full comment text, for error messages.
	Raw string

	// used records that the directive suppressed at least one diagnostic;
	// guarded by the owning Index's mutex.
	used bool
}

// wellFormed reports whether the directive is a valid suppression for a.
func (d Directive) wellFormed(a *Analyzer) bool {
	if d.Reason == "" {
		return false
	}
	for _, c := range a.Claims {
		if c == d.Claim {
			return true
		}
	}
	return false
}

// directiveRe matches "//lint:<analyzer> <claim> -- <reason>"; the reason
// part is optional at parse time so validation can demand it with a precise
// message.
var directiveRe = regexp.MustCompile(`^//lint:([a-z][a-z0-9]*)\s+([A-Za-z0-9-]+)\s*(?:--\s*(.*\S))?\s*$`)

// Index holds one package's parsed //lint: directives plus the suite
// bookkeeping built on them: which analyzers consulted the index (ran)
// and which directives suppressed at least one diagnostic (used). A
// single Index is shared by every pass over a package — including passes
// running on different goroutines under the parallel driver — so all
// mutation happens under its mutex.
type Index struct {
	mu     sync.Mutex
	byLine map[string]map[int][]*Directive // filename → line → directives
	all    []*Directive                    // source order
	ran    map[string]*Analyzer            // analyzers registered via NewPassShared
}

// NewIndex parses every //lint: comment in the files into a fresh index.
func NewIndex(fset *token.FileSet, files []*ast.File) *Index {
	ix := &Index{byLine: map[string]map[int][]*Directive{}, ran: map[string]*Analyzer{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, "//lint:") {
					continue
				}
				d := parseDirective(c)
				pos := fset.Position(c.Pos())
				byLine := ix.byLine[pos.Filename]
				if byLine == nil {
					byLine = map[int][]*Directive{}
					ix.byLine[pos.Filename] = byLine
				}
				byLine[pos.Line] = append(byLine[pos.Line], &d)
				ix.all = append(ix.all, &d)
			}
		}
	}
	return ix
}

// register records that analyzer a is running against this index.
func (ix *Index) register(a *Analyzer) {
	ix.mu.Lock()
	ix.ran[a.Name] = a
	ix.mu.Unlock()
}

// suppress reports whether a well-formed directive for the analyzer
// covers pos (the flagged line or the line above), marking it used.
func (ix *Index) suppress(a *Analyzer, pos token.Position) bool {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, d := range ix.byLine[pos.Filename][line] {
			if d.Analyzer == a.Name && d.wellFormed(a) {
				d.used = true
				return true
			}
		}
	}
	return false
}

// UnusedSuppressions returns the well-formed directives that name an
// analyzer registered against this index yet suppressed no diagnostic —
// suppression debt. Directives naming `except` (the reporting analyzer
// itself, which has not finished running) and directives for analyzers
// that did not run this invocation are skipped, as are malformed ones
// (CheckDirectives owns those). The result is in source order.
func (ix *Index) UnusedSuppressions(except string) []*Directive {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	var out []*Directive
	for _, d := range ix.all {
		if d.used || d.Analyzer == except {
			continue
		}
		a, ranHere := ix.ran[d.Analyzer]
		if !ranHere || !d.wellFormed(a) {
			continue
		}
		out = append(out, d)
	}
	return out
}

// parseDirective decodes one //lint: comment; an unparsable comment yields a
// Directive with empty Analyzer, which CheckDirectives flags. A trailing
// "// want" clause is ignored so analysistest fixtures can assert on the
// directive's own line.
func parseDirective(c *ast.Comment) Directive {
	text := c.Text
	if i := strings.Index(text, "// want "); i > 0 {
		text = strings.TrimSpace(text[:i])
	}
	m := directiveRe.FindStringSubmatch(text)
	if m == nil {
		return Directive{Pos: c.Pos(), Raw: text}
	}
	return Directive{Pos: c.Pos(), Analyzer: m[1], Claim: m[2], Reason: m[3], Raw: text}
}

// CheckDirectives validates every //lint: comment in the files against the
// analyzer set: the named analyzer must exist, the claim must be one the
// analyzer accepts, and the reason must be non-empty. Violations come back
// as diagnostics attributed to the pseudo-analyzer "directive".
func CheckDirectives(fset *token.FileSet, files []*ast.File, analyzers []*Analyzer) []Diagnostic {
	byName := map[string]*Analyzer{}
	for _, a := range analyzers {
		byName[a.Name] = a
	}
	var diags []Diagnostic
	report := func(pos token.Pos, format string, args ...any) {
		diags = append(diags, Diagnostic{Pos: pos, Analyzer: "directive", Message: fmt.Sprintf(format, args...)})
	}
	for _, d := range allDirectives(fset, files) {
		switch a, ok := byName[d.Analyzer]; {
		case d.Analyzer == "":
			report(d.Pos, "malformed lint directive %q: want //lint:<analyzer> <claim> -- <reason>", d.Raw)
		case !ok:
			report(d.Pos, "lint directive names unknown analyzer %q", d.Analyzer)
		case !hasClaim(a, d.Claim):
			report(d.Pos, "analyzer %s does not accept claim %q (accepted: %s)",
				d.Analyzer, d.Claim, strings.Join(a.Claims, ", "))
		case d.Reason == "":
			report(d.Pos, "lint directive %q is missing its justification: append ` -- <reason>`", strings.TrimSpace(d.Raw))
		}
	}
	return diags
}

func hasClaim(a *Analyzer, claim string) bool {
	for _, c := range a.Claims {
		if c == claim {
			return true
		}
	}
	return false
}

func allDirectives(fset *token.FileSet, files []*ast.File) []Directive {
	var out []Directive
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.HasPrefix(c.Text, "//lint:") {
					out = append(out, parseDirective(c))
				}
			}
		}
	}
	return out
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
