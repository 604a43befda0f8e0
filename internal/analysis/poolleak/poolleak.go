// Package poolleak verifies the packet pool's custody contract on every
// control-flow path: a packet checked out with Sim.NewPacket or
// Sim.ClonePacket must, on every path from the allocation to the
// function's return, either be released with FreePacket or handed to a
// call that takes custody of it. The pool's runtime accounting
// (PoolStats.Live, -tags pooldebug poisoning) only catches a leak on
// paths a test actually executes; this analyzer walks the CFG
// (analysis/flow) and a forward may-own dataflow instead, so the
// guarantee holds at compile time (DESIGN.md §Lint).
//
// # Custody model
//
// The analyzer tracks local variables assigned directly from a pool
// source (NewPacket/ClonePacket). A tracked packet stops being this
// function's responsibility when it reaches:
//
//   - a call taking the pointer, other than the borrowing calls below:
//     a release (FreePacket), a transfer (SchedulePacket and
//     SchedulePacketAfter to the event heap, Mesh.SendPacket to an
//     outbox, Link Send / Receiver Receive along the datapath, queue
//     Enqueue / ring push), or any other callee
//   - an escape:   storing it into a field, slice, map, channel, or
//     aggregate, returning it, aliasing it to another name, taking its
//     address, or capturing it in a closure. Escapes hand custody to
//     code this function cannot see, so they end tracking without a
//     diagnostic — the conservative direction that keeps the analyzer
//     quiet rather than wrong.
//
// A diagnostic is reported when some path reaches the function's exit
// with the packet still owned, when a source's result is discarded
// outright, or when a tracked variable is overwritten while still
// owning a packet. Borrowing calls (ClonePacket of a tracked packet,
// AssertLive) leave custody untouched.
//
// Deferred calls are modeled as running once at every exit, and a path
// that ends in panic is not checked — both documented fallbacks of the
// flow package, as is the goto/label bail-out: a function the builder
// cannot model precisely is reported as unverifiable when it allocates
// packets at all.
//
// The escape hatch, for custody schemes the dataflow cannot see (e.g. a
// packet parked in a struct the caller frees):
//
//	//lint:poolleak released-elsewhere -- <who releases this packet, and on which event>
//
// # Bare literals
//
// A packet that never came from the pool has no custody to track: a raw
// `&Packet{...}` (or value `Packet{...}`) literal of netsim's Packet type
// can never be recycled, drifts the pool's leak accounting, and escapes
// the -tags pooldebug poison bookkeeping. Every such literal in a
// simulation package is flagged, and so are the two builtins that make
// packets without a literal, `new(Packet)` and `make([]Packet, n)`, and a
// `var` with no initializer whose type is Packet or an array of it. The
// sanctioned exceptions are the pool's own growth path (its slab) and the
// checkpoint's rematerialization, which carry:
//
//	//lint:poolleak pool-internal -- <why this packet is the pool's own allocation>
package poolleak

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"repro/internal/analysis"
	"repro/internal/analysis/flow"
)

// Analyzer is the poolleak pass.
var Analyzer = &analysis.Analyzer{
	Name:   "poolleak",
	Doc:    "packets from Sim.NewPacket/ClonePacket must reach FreePacket or an ownership-transfer call on every path to return, and no netsim.Packet may be built by composite literal, new, make or var declaration outside the pool",
	Claims: []string{"released-elsewhere", "pool-internal"},
	Run:    run,
}

// borrowCalls inspect a packet without taking custody.
var borrowCalls = map[string]bool{
	"ClonePacket": true, // reads fields of the original
	"AssertLive":  true, // pooldebug checkpoint
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
				// Each closure is its own function for custody purposes:
				// packets it allocates must be settled within it (outer
				// variables it captures are excluded from the outer
				// function's tracking).
				analyze(pass, n.Body)
			case *ast.CompositeLit:
				if tv, ok := pass.TypesInfo.Types[n]; ok && isNetsimPacket(tv.Type) {
					pass.Reportf(n.Pos(), bareMsg, "composite literal")
				}
			case *ast.CallExpr:
				if name := bareAlloc(pass, n); name != "" {
					pass.Reportf(n.Pos(), bareMsg, name)
				}
			case *ast.ValueSpec:
				if n.Type != nil && len(n.Values) == 0 && isNetsimPacket(arrayElem(pass.TypesInfo.TypeOf(n.Type))) {
					pass.Reportf(n.Pos(), bareMsg, "var declaration")
				}
			}
			return true
		})
	}
	return nil
}

// bareMsg is the diagnostic for a Packet that never came from the pool; the
// %s names the construct that made it.
const bareMsg = "netsim.Packet %s bypasses the packet pool; allocate with Sim.NewPacket (or ClonePacket) so the packet can be released and recycled"

// bareAlloc names the builtin when call is new(Packet) or make([]Packet, …) of
// netsim's Packet type, and returns "" otherwise. A slice of pointers, such
// as a queue's ring, allocates no packets and is not flagged.
func bareAlloc(pass *analysis.Pass, call *ast.CallExpr) string {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	if !ok {
		return ""
	}
	tv, ok := pass.TypesInfo.Types[call]
	if !ok {
		return ""
	}
	switch t := tv.Type.(type) {
	case *types.Pointer:
		if b.Name() == "new" && isNetsimPacket(t.Elem()) {
			return "new(Packet)"
		}
	case *types.Slice:
		if b.Name() == "make" && isNetsimPacket(t.Elem()) {
			return "make([]Packet)"
		}
	}
	return ""
}

// analyze checks one function body.
func analyze(pass *analysis.Pass, body *ast.BlockStmt) {
	if !bodyAllocates(pass.TypesInfo, body) {
		return // nothing to track; skip the CFG entirely
	}
	g := flow.Build(body)
	if g.Unsupported != nil {
		pass.Reportf(g.Unsupported.Pos(),
			"cannot verify packet custody: goto/labeled control flow defeats the CFG builder; restructure, or annotate the allocation `//lint:poolleak released-elsewhere -- <reason>`")
		return
	}
	lf := &leakFlow{pass: pass, excluded: excludedObjects(pass, body)}
	// May-own: owned on either path counts; keep the earliest allocation
	// site for a stable diagnostic position.
	res := flow.Fixpoint(g, func(s ownMap, n ast.Node) { lf.step(s, n, nil) },
		func(a, b token.Pos) token.Pos { return min(a, b) })

	// Reporting pass over the converged states: walk each reachable block
	// once more with the report sink attached, then flag whatever is
	// still owned when the exit state (defers applied) is reached.
	seen := map[string]bool{}
	report := func(pos token.Pos, format string, args ...any) {
		key := pass.Fset.Position(pos).String() + format
		if seen[key] {
			return
		}
		seen[key] = true
		pass.Reportf(pos, format, args...)
	}
	res.Replay(func(s ownMap, n ast.Node) { lf.step(s, n, report) })
	out := res.Out[g.Exit]
	for _, obj := range sortedOwners(out) {
		report(out[obj],
			"packet allocated here may leak: a path to return reaches neither FreePacket nor an ownership transfer (SchedulePacket/SchedulePacketAfter/Mesh.SendPacket/Send/Receive/Enqueue)")
	}
}

// ownMap is the dataflow state: tracked variable → allocation position,
// present while some path may still own the packet.
type ownMap = flow.Facts[types.Object, token.Pos]

// leakFlow is the may-own analysis of one function body.
type leakFlow struct {
	pass *analysis.Pass
	// excluded are objects never tracked: captured by a closure or
	// address-taken, so custody is visible to code outside this CFG.
	excluded map[types.Object]bool
}

type reportFn func(pos token.Pos, format string, args ...any)

// step applies one node's custody effects to the state. The report sink is
// nil during fixpoint iteration and live during the reporting pass.
func (lf *leakFlow) step(s ownMap, n ast.Node, report reportFn) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		lf.assign(s, n, report)
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Names) == len(vs.Values) {
					for i := range vs.Names {
						lf.uses(s, vs.Values[i], report)
						lf.assignOne(s, vs.Names[i], vs.Values[i], report)
					}
				}
			}
		}
	case *ast.ExprStmt:
		if call, ok := n.X.(*ast.CallExpr); ok && isSource(lf.pass.TypesInfo, call) {
			if report != nil {
				report(call.Pos(), "result of %s is discarded: the packet can never be released or recycled", calleeName(call))
			}
		}
		lf.uses(s, n.X, report)
	case *ast.ReturnStmt:
		for _, r := range n.Results {
			if obj := lf.trackedIdent(s, r); obj != nil {
				delete(s, obj) // custody returned to the caller
				continue
			}
			lf.uses(s, r, report)
		}
	case *ast.SendStmt:
		if obj := lf.trackedIdent(s, n.Value); obj != nil {
			delete(s, obj) // custody crosses the channel
		}
		lf.uses(s, n.Chan, report)
		lf.uses(s, n.Value, report)
	case *ast.GoStmt:
		lf.uses(s, n.Call, report)
	default:
		// Condition expressions, inc/dec, range key/value idents, deferred
		// calls attached to the exit block, …
		lf.uses(s, n, report)
	}
}

// assign processes one assignment statement: RHS custody effects first
// (aliasing a tracked packet to a new name ends tracking), then
// per-position gens and overwrite checks.
func (lf *leakFlow) assign(s ownMap, as *ast.AssignStmt, report reportFn) {
	for _, r := range as.Rhs {
		if obj := lf.trackedIdent(s, r); obj != nil {
			delete(s, obj) // alias: custody follows the other name now
			continue
		}
		lf.uses(s, r, report)
	}
	if len(as.Lhs) == len(as.Rhs) {
		for i := range as.Lhs {
			lf.assignOne(s, as.Lhs[i], as.Rhs[i], report)
		}
		return
	}
	// Tuple assignment from a multi-result call: no pool source returns a
	// tuple, but overwriting a tracked variable still orphans its packet.
	for _, l := range as.Lhs {
		lf.overwrite(s, l, report)
	}
}

// assignOne applies `lhs = rhs` to the state.
func (lf *leakFlow) assignOne(s ownMap, lhs, rhs ast.Expr, report reportFn) {
	call, isCall := rhs.(*ast.CallExpr)
	src := isCall && isSource(lf.pass.TypesInfo, call)
	id, isIdent := lhs.(*ast.Ident)
	if isIdent && id.Name != "_" {
		obj := lf.pass.TypesInfo.ObjectOf(id)
		if obj == nil {
			return
		}
		lf.overwrite(s, lhs, report)
		if src && !lf.excluded[obj] {
			s[obj] = call.Pos()
		}
		return
	}
	if src && isIdent { // blank identifier
		if report != nil {
			report(call.Pos(), "result of %s assigned to _: the packet can never be released or recycled", calleeName(call))
		}
	}
	// Non-ident destination (field, index): custody moves into the
	// aggregate — an escape, nothing tracked.
}

// overwrite flags and drops a tracked variable that is being reassigned
// while it still owns a packet on some path.
func (lf *leakFlow) overwrite(s ownMap, lhs ast.Expr, report reportFn) {
	id, ok := lhs.(*ast.Ident)
	if !ok {
		return
	}
	obj := lf.pass.TypesInfo.ObjectOf(id)
	if obj == nil {
		return
	}
	if pos, owned := s[obj]; owned {
		if report != nil {
			report(lhs.Pos(), "reassignment of %s orphans the packet allocated at %s: release or transfer it first",
				id.Name, lf.pass.Fset.Position(pos))
		}
		delete(s, obj)
	}
}

// uses walks an expression tree for custody effects: call argument
// classification (borrow / transfer / escape), aggregate escapes, and
// address-taking. Function literals are opaque — their bodies are
// analyzed as functions of their own.
func (lf *leakFlow) uses(s ownMap, e ast.Node, report reportFn) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			lf.call(s, n, report)
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				v := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					v = kv.Value
				}
				if obj := lf.trackedIdent(s, v); obj != nil {
					delete(s, obj) // escapes into the aggregate
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if obj := lf.trackedIdent(s, n.X); obj != nil {
					delete(s, obj) // address escapes
				}
			}
		}
		return true
	})
}

// sortedOwners orders the still-owned objects by allocation position so
// exit-leak diagnostics come out deterministically.
func sortedOwners(s ownMap) []types.Object {
	objs := make([]types.Object, 0, len(s))
	for o := range s {
		objs = append(objs, o)
	}
	sort.Slice(objs, func(i, j int) bool { return s[objs[i]] < s[objs[j]] })
	return objs
}

// call classifies one call's direct packet-ident arguments against the
// custody table.
func (lf *leakFlow) call(s ownMap, call *ast.CallExpr, report reportFn) {
	name := calleeName(call)
	for _, arg := range call.Args {
		obj := lf.trackedIdent(s, arg)
		if obj == nil {
			continue
		}
		if borrowCalls[name] {
			continue
		}
		// A release, a custody transfer, or an escape into a callee that
		// now owns the packet as far as this function can see: all end
		// tracking.
		delete(s, obj)
	}
}

// trackedIdent returns the object of e when e is a bare identifier whose
// object is currently tracked.
func (lf *leakFlow) trackedIdent(s ownMap, e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	obj := lf.pass.TypesInfo.ObjectOf(id)
	if obj == nil {
		return nil
	}
	if _, owned := s[obj]; !owned {
		return nil
	}
	return obj
}

// isSource reports whether call checks a packet out of the pool: a method
// named NewPacket or ClonePacket whose result is a pointer to netsim's
// Packet type.
func isSource(info *types.Info, call *ast.CallExpr) bool {
	name := calleeName(call)
	if name != "NewPacket" && name != "ClonePacket" {
		return false
	}
	ptr, ok := info.TypeOf(call).(*types.Pointer)
	return ok && isNetsimPacket(ptr.Elem())
}

// netsimPkgRe matches the simulator core package, whose Packet type is
// pooled (DESIGN.md §Pool).
var netsimPkgRe = analysis.PathRe("netsim")

// isNetsimPacket reports whether t is the pooled Packet type.
func isNetsimPacket(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Packet" && obj.Pkg() != nil && netsimPkgRe.MatchString(obj.Pkg().Path())
}

// arrayElem strips every array level off t: a [4]Packet holds packets by
// value as a Packet does.
func arrayElem(t types.Type) types.Type {
	for {
		a, ok := t.(*types.Array)
		if !ok {
			return t
		}
		t = a.Elem()
	}
}

func calleeName(call *ast.CallExpr) string {
	switch f := call.Fun.(type) {
	case *ast.SelectorExpr:
		return f.Sel.Name
	case *ast.Ident:
		return f.Name
	}
	return ""
}

// bodyAllocates reports whether the body (excluding nested closures)
// contains a pool source call at all.
func bodyAllocates(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && isSource(info, call) {
			found = true
			return false
		}
		return true
	})
	return found
}

// excludedObjects collects the objects the dataflow must never track:
// identifiers referenced inside any nested closure (the closure may
// release them on its own schedule) and identifiers whose address is
// taken anywhere in the body.
func excludedObjects(pass *analysis.Pass, body *ast.BlockStmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	mark := func(n ast.Node) {
		ast.Inspect(n, func(m ast.Node) bool {
			if id, ok := m.(*ast.Ident); ok {
				if obj := pass.TypesInfo.Uses[id]; obj != nil {
					out[obj] = true
				}
			}
			return true
		})
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			mark(n.Body)
			return false
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if id, ok := n.X.(*ast.Ident); ok {
					if obj := pass.TypesInfo.Uses[id]; obj != nil {
						out[obj] = true
					}
				}
			}
		}
		return true
	})
	return out
}
