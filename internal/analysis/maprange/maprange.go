// Package maprange flags map iteration whose order can leak into
// simulation results.
//
// Go randomizes map iteration order per run, so any map range in a
// simulation package is a determinism hazard. The one shape accepted
// without a directive is the canonical fix: the loop body only collects
// the range variables into a slice, and the slice's first use after the
// loop is a sort call, so the collected order is destroyed before anything
// reads it. Anything else is flagged. Fix by iterating sorted keys, or
// justify with:
//
//	//lint:maprange ordered-elsewhere -- <why iteration order cannot reach any output or digest>
package maprange

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the maprange pass.
var Analyzer = &analysis.Analyzer{
	Name:   "maprange",
	Doc:    "flag map iteration in simulation packages unless the loop only collects into a slice that is sorted before any other use",
	Claims: []string{"ordered-elsewhere"},
	Run:    run,
}

func run(pass *analysis.Pass) error {
	if !analysis.IsSimPackage(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		// Every range sits in a function declaration or, at package level,
		// in a function literal (`var total = func() float64 {...}()`).
		// Either is the outermost body, the one sortedCollect searches.
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkRanges(pass, fn.Body)
				}
			case *ast.FuncLit:
				checkRanges(pass, fn.Body)
			default:
				return true
			}
			return false
		})
	}
	return nil
}

// checkRanges flags every map range in body that is not a sorted collect.
func checkRanges(pass *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pass.TypesInfo.Types[rng.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		if !sortedCollect(pass, rng, body) {
			pass.Reportf(rng.Pos(),
				"map iteration order is randomized; collect the keys and sort them before any other use, or annotate `//lint:maprange ordered-elsewhere -- <reason>`")
		}
		return true
	})
}

// sortedCollect recognizes the canonical fix idiom: the loop body is
// exactly `s = append(s, k...)` collecting the range variables, and the
// first use of that same s after the loop, in the enclosing function, is
// the first argument of a sort (package sort or slices) — so the collected
// order never survives.
func sortedCollect(pass *analysis.Pass, rng *ast.RangeStmt, fnBody *ast.BlockStmt) bool {
	if len(rng.Body.List) != 1 {
		return false
	}
	asg, ok := rng.Body.List[0].(*ast.AssignStmt)
	if !ok || asg.Tok != token.ASSIGN || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 {
		return false
	}
	call, ok := asg.Rhs[0].(*ast.CallExpr)
	if !ok {
		return false
	}
	if fun, ok := call.Fun.(*ast.Ident); !ok || fun.Name != "append" || len(call.Args) < 2 {
		return false
	}
	info := pass.TypesInfo
	obj := func(e ast.Expr) types.Object {
		if id, ok := e.(*ast.Ident); ok {
			return info.ObjectOf(id)
		}
		return nil
	}
	dst := obj(asg.Lhs[0])
	if dst == nil || obj(call.Args[0]) != dst {
		return false
	}
	// The appended values may only be the range variables (key/value).
	for _, arg := range call.Args[1:] {
		if v := obj(arg); v == nil || (v != obj(rng.Key) && v != obj(rng.Value)) {
			return false
		}
	}
	// The first use of dst after the loop must be what a sort call sorts.
	var first *ast.Ident
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Pos() > rng.End() && info.ObjectOf(id) == dst && (first == nil || id.Pos() < first.Pos()) {
			first = id
		}
		return true
	})
	sorted := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && first != nil && len(call.Args) > 0 && call.Args[0] == first {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				pkg, _, ok := analysis.PkgSymbol(info, sel)
				sorted = ok && (pkg == "sort" || pkg == "slices")
			}
		}
		return true
	})
	return sorted
}
