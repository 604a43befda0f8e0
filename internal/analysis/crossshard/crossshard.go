// Package crossshard verifies the mesh sharding invariant at compile
// time: a callback scheduled on one cell's Sim runs inside that cell's
// shard and may touch other cells only through the Mesh outbox/barrier
// API (Mesh.SendPacket), never by calling into another
// cell's Sim directly. RunSharded executes cells on separate goroutines
// between barriers, so a direct cross-cell touch is a data race and a
// serial≡sharded divergence — the exact class of bug the
// executor-equivalence harness exists to catch at runtime, promoted here
// to a compile-time check (DESIGN.md §12).
//
// # What it proves
//
// The analyzer runs the analysis/flow dataflow over each function to
// track which cell every *netsim.Sim variable originates from: a
// variable assigned `mesh.Cell(3)` has origin cell 3; copies propagate
// the origin; joining paths that disagree, reassignment, or a
// non-constant cell index degrade the origin to unknown. A function
// literal passed to a scheduling method (Schedule, Every, ScheduleTracked,
// RegisterFunc) of a Sim with known origin N is a worker context for cell
// N: any reference inside it
// to a Sim variable whose origin is a *known, different* cell M is
// reported.
//
// Unknown origins are never reported — the check is deliberately
// one-sided. Loop-driven topology wiring (`sim := mesh.Cell(s)` for a
// loop variable s) stays quiet because s is not a constant; what cannot
// hide is the literal cross-wiring mistake `mesh.Cell(0)` inside a
// worker scheduled on `mesh.Cell(1)`.
//
// The escape hatch, for deliberate cross-cell access (setup-time code
// that happens to sit in a closure, single-threaded harness tricks):
//
//	//lint:crossshard cross-shard-ok -- <why this access cannot race>
package crossshard

import (
	"go/ast"
	"go/constant"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/analysis/flow"
)

// Analyzer is the crossshard pass.
var Analyzer = &analysis.Analyzer{
	Name:   "crossshard",
	Doc:    "callbacks scheduled on one cell's Sim must not touch another cell's Sim except through the Mesh outbox API",
	Claims: []string{"cross-shard-ok"},
	Run:    run,
}

// schedulingMethods are the Sim methods whose func-literal argument runs
// inside that Sim's shard: ScheduleTracked and RegisterFunc are how the
// metro harness and the fault layer register checkpointable callbacks.
// SchedulePacket and SchedulePacketAfter take a Receiver, never a func
// literal, so they cannot match.
var schedulingMethods = map[string]bool{
	"Schedule":        true,
	"Every":           true,
	"ScheduleTracked": true,
	"RegisterFunc":    true,
}

func run(pass *analysis.Pass) error {
	if !analysis.IsSimPackage(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					analyze(pass, n.Body)
				}
			case *ast.FuncLit:
				// A closure's own locals get their own dataflow; worker
				// literals nested inside it are found on this pass too.
				analyze(pass, n.Body)
			}
			return true
		})
	}
	return nil
}

func analyze(pass *analysis.Pass, body *ast.BlockStmt) {
	if !bodyMentionsCell(body) {
		return
	}
	g := flow.Build(body)
	if g.Unsupported != nil {
		// No Cell-origin facts survive imprecise control flow; every origin
		// would be unknown anyway, and unknown is never reported.
		return
	}
	cf := &cellFlow{info: pass.TypesInfo}
	res := flow.Fixpoint(g, cf.step, func(a, b origin) origin {
		if a != b {
			return unknown // paths disagree
		}
		return a
	})
	// Reporting pass: check every worker literal registered in a block
	// against the state at the registration point.
	res.Replay(func(s origins, n ast.Node) {
		cf.step(s, n)
		cf.checkWorkers(s, n, pass)
	})
}

// origin is one variable's provenance: the mesh cell it was obtained
// from, when that is a compile-time constant.
type origin struct {
	cell  int64
	known bool
}

// origins is the dataflow state: *Sim-typed object → provenance.
type origins = flow.Facts[types.Object, origin]

var unknown = origin{}

// cellFlow is the cell-origin analysis of one function body.
type cellFlow struct {
	info *types.Info
}

// step applies one node's assignments to the origin state.
func (cf *cellFlow) step(s origins, n ast.Node) {
	if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == len(as.Rhs) {
		for i := range as.Lhs {
			cf.assignOne(s, as.Lhs[i], as.Rhs[i])
		}
	}
}

// assignOne updates the origin of a *Sim-typed identifier destination.
func (cf *cellFlow) assignOne(s origins, lhs, rhs ast.Expr) {
	id, ok := lhs.(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	obj := cf.info.ObjectOf(id)
	if obj == nil || !isSimPtr(obj.Type()) {
		return
	}
	if o, ok := cf.originOf(s, rhs); ok {
		s[obj] = o
		return
	}
	s[obj] = unknown // reassigned from something we cannot place
}

// originOf computes the provenance of an expression: a Cell(const) call,
// or a copy of an already-tracked variable.
func (cf *cellFlow) originOf(s origins, e ast.Expr) (origin, bool) {
	switch e := e.(type) {
	case *ast.Ident:
		if obj := cf.info.ObjectOf(e); obj != nil {
			if o, ok := s[obj]; ok {
				return o, true
			}
		}
	case *ast.CallExpr:
		if cell, ok := cf.cellCall(e); ok {
			return cell, true
		}
	case *ast.ParenExpr:
		return cf.originOf(s, e.X)
	}
	return unknown, false
}

// cellCall recognizes Mesh.Cell(i): origin known iff i is a constant.
func (cf *cellFlow) cellCall(call *ast.CallExpr) (origin, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Cell" || len(call.Args) != 1 {
		return unknown, false
	}
	if !isSimPtr(cf.info.TypeOf(call)) {
		return unknown, false
	}
	tv, ok := cf.info.Types[call.Args[0]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return unknown, true // Cell of a runtime index: tracked but unknown
	}
	c, exact := constant.Int64Val(tv.Value)
	if !exact {
		return unknown, true
	}
	return origin{cell: c, known: true}, true
}

// checkWorkers finds scheduling calls in the node and validates each
// worker literal's body against the current origin state.
func (cf *cellFlow) checkWorkers(s origins, n ast.Node, pass *analysis.Pass) {
	ast.Inspect(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !schedulingMethods[sel.Sel.Name] {
			return true
		}
		recv, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		obj := cf.info.ObjectOf(recv)
		if obj == nil || !isSimPtr(obj.Type()) {
			return true
		}
		home, tracked := s[obj]
		if !tracked || !home.known {
			return true // cannot place the worker's shard: stay quiet
		}
		for _, arg := range call.Args {
			if lit, ok := arg.(*ast.FuncLit); ok {
				cf.checkWorkerBody(s, lit.Body, home.cell, pass)
			}
		}
		return true
	})
}

// checkWorkerBody reports every reference inside a worker closure to a
// Sim variable that provably belongs to a different cell. The origin
// state is the one at the registration point — the repository wires
// topology once at setup, so origins do not change between registration
// and execution.
func (cf *cellFlow) checkWorkerBody(s origins, body *ast.BlockStmt, home int64, pass *analysis.Pass) {
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := cf.info.Uses[id]
		if obj == nil || !isSimPtr(obj.Type()) {
			return true
		}
		if o, tracked := s[obj]; tracked && o.known && o.cell != home {
			pass.Reportf(id.Pos(),
				"worker scheduled on cell %d touches cell %d's Sim directly; cross-cell effects must go through Mesh.SendPacket (the outbox respects the lookahead barrier, a direct call races)",
				home, o.cell)
		}
		return true
	})
}

// isSimPtr reports whether t is *Sim for netsim's Sim type.
func isSimPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	return ok && analysis.IsNetsimType(ptr.Elem(), "Sim")
}

// bodyMentionsCell is the cheap pre-filter: no Cell selector, no
// origins, nothing to report.
func bodyMentionsCell(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Cell" {
			found = true
			return false
		}
		return true
	})
	return found
}
