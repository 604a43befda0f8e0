// Package maprange flags map iteration whose order can leak into
// simulation results.
//
// Go randomizes map iteration order per run, so any map range in a
// simulation package is a determinism hazard unless the loop body provably
// cannot observe the order; this analyzer rejects the pattern statically.
//
// A range over a map is accepted when the loop body is a commutative,
// float-free accumulation: every statement is an integer increment,
// decrement, or commutative compound assignment (+=, |=, &=, ^=), possibly
// under ifs and continues. The canonical fix — collecting the keys into a
// slice that the same function then sorts — is also recognized. Anything
// else (appending unsorted values, writing floats, calling functions, early
// exit) is flagged. Fix by iterating sorted keys, or justify with:
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
	Doc:    "flag map iteration in simulation packages unless the body is a provably order-insensitive (commutative, float-free) accumulation",
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

// checkRanges flags every map range in body whose loop is not provably
// order-insensitive.
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
		if orderInsensitive(pass, rng.Body.List) || sortedCollect(pass, rng, body) {
			return true
		}
		pass.Reportf(rng.Pos(),
			"map iteration order is randomized and this body is not a provably commutative accumulation; iterate sorted keys, or annotate `//lint:maprange ordered-elsewhere -- <reason>`")
		return true
	})
}

// sortedCollect recognizes the canonical fix idiom: the loop body is
// exactly `s = append(s, k...)` collecting the range variables, and the
// enclosing function later passes s to a sort (package sort or slices) —
// so the collected order never survives.
func sortedCollect(pass *analysis.Pass, rng *ast.RangeStmt, fnBody *ast.BlockStmt) bool {
	if len(rng.Body.List) != 1 {
		return false
	}
	asg, ok := rng.Body.List[0].(*ast.AssignStmt)
	if !ok || asg.Tok != token.ASSIGN || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 {
		return false
	}
	dst, ok := asg.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	call, ok := asg.Rhs[0].(*ast.CallExpr)
	if !ok {
		return false
	}
	if fun, ok := call.Fun.(*ast.Ident); !ok || fun.Name != "append" || len(call.Args) < 2 {
		return false
	}
	if first, ok := call.Args[0].(*ast.Ident); !ok || first.Name != dst.Name {
		return false
	}
	// The appended values may only be the range variables (key/value).
	rangeVars := map[string]bool{}
	for _, v := range []ast.Expr{rng.Key, rng.Value} {
		if id, ok := v.(*ast.Ident); ok {
			rangeVars[id.Name] = true
		}
	}
	for _, arg := range call.Args[1:] {
		id, ok := arg.(*ast.Ident)
		if !ok || !rangeVars[id.Name] {
			return false
		}
	}
	// The destination must reach a sort call later in the function.
	sorted := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if sorted || n == nil || n.Pos() <= rng.End() {
			return true
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg, _, ok := analysis.PkgSymbol(pass.TypesInfo, sel)
		if !ok || (pkg != "sort" && pkg != "slices") {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := arg.(*ast.Ident); ok && id.Name == dst.Name {
				sorted = true
			}
		}
		return true
	})
	return sorted
}

// orderInsensitive conservatively proves a loop body cannot observe
// iteration order: only integer ++/--/commutative-op-assign statements,
// optionally nested under if/else (whose condition must be side-effect
// free) or skipped with continue. Everything else fails the proof.
func orderInsensitive(pass *analysis.Pass, stmts []ast.Stmt) bool {
	for _, s := range stmts {
		switch s := s.(type) {
		case *ast.IncDecStmt:
			if !integerLvalue(pass, s.X) {
				return false
			}
		case *ast.AssignStmt:
			if !commutativeAssign(pass, s) {
				return false
			}
		case *ast.IfStmt:
			if s.Init != nil || hasCalls(s.Cond) {
				return false
			}
			if !orderInsensitive(pass, s.Body.List) {
				return false
			}
			switch e := s.Else.(type) {
			case nil:
			case *ast.BlockStmt:
				if !orderInsensitive(pass, e.List) {
					return false
				}
			case *ast.IfStmt:
				if !orderInsensitive(pass, []ast.Stmt{e}) {
					return false
				}
			default:
				return false
			}
		case *ast.BranchStmt:
			if s.Tok != token.CONTINUE || s.Label != nil {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// commutativeAssign accepts x op= e for commutative integer ops. Float
// accumulation is explicitly rejected: float addition does not reassociate,
// so its result depends on visit order.
func commutativeAssign(pass *analysis.Pass, s *ast.AssignStmt) bool {
	switch s.Tok {
	case token.ADD_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
	default:
		return false
	}
	if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
		return false
	}
	return integerLvalue(pass, s.Lhs[0]) && !hasCalls(s.Rhs[0])
}

// integerLvalue reports whether expr has integer type (float and string
// accumulations are order-sensitive; interface/complex are out of scope).
func integerLvalue(pass *analysis.Pass, expr ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[expr]
	if !ok {
		return false
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsInteger != 0
}

// hasCalls reports whether the expression contains any call (which could
// have side effects or observe state mutated earlier in the iteration).
func hasCalls(expr ast.Expr) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if _, ok := n.(*ast.CallExpr); ok {
			found = true
			return false
		}
		return true
	})
	return found
}
