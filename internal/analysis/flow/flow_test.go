package flow

import (
	"go/ast"
	"go/parser"
	"go/token"
	"maps"
	"strings"
	"testing"
)

// parseBody parses `src` (one function declaration) and returns its body.
func parseBody(t *testing.T, src string) *ast.BlockStmt {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", "package p\n"+src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			return fd.Body
		}
	}
	t.Fatal("no function in source")
	return nil
}

// exitReachable reports whether Exit is reachable from Entry.
func exitReachable(g *Graph) bool {
	seen := map[*Block]bool{}
	var visit func(*Block) bool
	visit = func(b *Block) bool {
		if b == g.Exit {
			return true
		}
		if seen[b] {
			return false
		}
		seen[b] = true
		for _, s := range b.Succs {
			if visit(s) {
				return true
			}
		}
		return false
	}
	return visit(g.Entry)
}

func TestBuildStraightLine(t *testing.T) {
	g := Build(parseBody(t, `func f() { x := 1; _ = x }`))
	if g.Unsupported != nil {
		t.Fatalf("unexpected Unsupported: %v", g.Unsupported)
	}
	if len(g.Entry.Nodes) != 2 {
		t.Fatalf("entry nodes = %d, want 2", len(g.Entry.Nodes))
	}
	if len(g.Entry.Succs) != 1 || g.Entry.Succs[0] != g.Exit {
		t.Fatalf("entry should fall through to exit")
	}
}

func TestBuildIfElseJoins(t *testing.T) {
	g := Build(parseBody(t, `func f(c bool) int {
	x := 0
	if c {
		x = 1
	} else {
		x = 2
	}
	return x
}`))
	// Entry (x:=0, c) → then/else → join → exit.
	if n := len(g.Entry.Succs); n != 2 {
		t.Fatalf("cond successors = %d, want 2 (then, else)", n)
	}
	if !exitReachable(g) {
		t.Fatal("exit unreachable")
	}
}

func TestBuildIfWithoutElseSkips(t *testing.T) {
	g := Build(parseBody(t, `func f(c bool) {
	if c {
		println()
	}
	println()
}`))
	// The condition block must branch both into the body and around it.
	if n := len(g.Entry.Succs); n != 2 {
		t.Fatalf("cond successors = %d, want 2 (then, after)", n)
	}
}

func TestBuildForLoop(t *testing.T) {
	g := Build(parseBody(t, `func f() {
	for i := 0; i < 4; i++ {
		if i == 2 {
			continue
		}
		if i == 3 {
			break
		}
	}
	println()
}`))
	if g.Unsupported != nil {
		t.Fatalf("unexpected Unsupported")
	}
	if !exitReachable(g) {
		t.Fatal("exit unreachable")
	}
	// A back edge must exist: some block's successor has a smaller index.
	back := false
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			if s.Index < b.Index {
				back = true
			}
		}
	}
	if !back {
		t.Fatal("no back edge in for loop")
	}
}

func TestBuildForeverLoopNoExitPath(t *testing.T) {
	g := Build(parseBody(t, `func f() {
	for {
		println()
	}
}`))
	if exitReachable(g) {
		t.Fatal("for{} without break must not reach exit")
	}
}

func TestBuildRange(t *testing.T) {
	g := Build(parseBody(t, `func f(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}`))
	if !exitReachable(g) {
		t.Fatal("exit unreachable")
	}
}

func TestBuildSwitch(t *testing.T) {
	// Without default the dispatch must branch to the join directly.
	g := Build(parseBody(t, `func f(x int) {
	switch x {
	case 1:
		println()
	case 2:
		println()
	}
	println()
}`))
	if n := len(g.Entry.Succs); n != 3 {
		t.Fatalf("dispatch successors = %d, want 3 (case, case, after)", n)
	}

	// With a default there is no skip edge.
	g = Build(parseBody(t, `func f(x int) {
	switch x {
	case 1:
		println()
	default:
		println()
	}
}`))
	if n := len(g.Entry.Succs); n != 2 {
		t.Fatalf("dispatch successors = %d, want 2 (case, default)", n)
	}
}

func TestBuildSwitchFallthrough(t *testing.T) {
	g := Build(parseBody(t, `func f(x int) {
	switch x {
	case 1:
		println()
		fallthrough
	case 2:
		println()
	}
}`))
	// The first case block must have the second case block as a successor.
	var caseBlocks []*Block
	for _, b := range g.Entry.Succs {
		if len(b.Nodes) > 0 {
			caseBlocks = append(caseBlocks, b)
		}
	}
	if len(caseBlocks) < 2 {
		t.Fatalf("expected two case blocks, got %d", len(caseBlocks))
	}
	found := false
	for _, s := range caseBlocks[0].Succs {
		if s == caseBlocks[1] {
			found = true
		}
	}
	if !found {
		t.Fatal("fallthrough edge from case 1 to case 2 missing")
	}
}

func TestBuildSelect(t *testing.T) {
	g := Build(parseBody(t, `func f(a, b chan int) {
	select {
	case <-a:
		println()
	case v := <-b:
		_ = v
	}
	println()
}`))
	if !exitReachable(g) {
		t.Fatal("exit unreachable")
	}
	// No default: dispatch goes only to the two comm clauses.
	if n := len(g.Entry.Succs); n != 2 {
		t.Fatalf("select dispatch successors = %d, want 2", n)
	}
}

func TestBuildReturnEdges(t *testing.T) {
	g := Build(parseBody(t, `func f(c bool) int {
	if c {
		return 1
	}
	return 2
}`))
	if len(g.Exit.Preds) != 2 {
		t.Fatalf("exit preds = %d, want 2 (two returns)", len(g.Exit.Preds))
	}
}

func TestBuildDeferToExit(t *testing.T) {
	g := Build(parseBody(t, `func f() {
	defer println("a")
	defer println("b")
	println("body")
}`))
	if len(g.Exit.Nodes) != 2 {
		t.Fatalf("exit defer nodes = %d, want 2", len(g.Exit.Nodes))
	}
	// LIFO: the "b" defer runs first.
	first := g.Exit.Nodes[0].(*ast.CallExpr)
	if lit, ok := first.Args[0].(*ast.BasicLit); !ok || !strings.Contains(lit.Value, "b") {
		t.Fatalf("defers not in LIFO order at exit")
	}
}

func TestBuildGotoUnsupported(t *testing.T) {
	g := Build(parseBody(t, `func f() {
loop:
	println()
	goto loop
}`))
	if g.Unsupported == nil {
		t.Fatal("goto/label must mark the graph unsupported")
	}
}

func TestBuildLabeledBreakUnsupported(t *testing.T) {
	g := Build(parseBody(t, `func f() {
outer:
	for {
		for {
			break outer
		}
	}
}`))
	if g.Unsupported == nil {
		t.Fatal("labeled break must mark the graph unsupported")
	}
}

func TestBuildPanicEndsPath(t *testing.T) {
	g := Build(parseBody(t, `func f(c bool) {
	if !c {
		panic("boom")
	}
	println()
}`))
	// The panic block must not feed Exit; only the normal path does.
	for _, p := range g.Exit.Preds {
		for _, n := range p.Nodes {
			if es, ok := n.(*ast.ExprStmt); ok && isPanicCall(es.X) {
				t.Fatal("panic path reaches exit")
			}
		}
	}
	if !exitReachable(g) {
		t.Fatal("normal path must still reach exit")
	}
}

// assignedVars is a toy may-analysis: the set of variable names that may
// have been assigned on some path. It exercises gen, join, and loop
// convergence.
func assignedVars(g *Graph) *Result[string, bool] {
	return Fixpoint(g, func(s Facts[string, bool], n ast.Node) {
		if as, ok := n.(*ast.AssignStmt); ok {
			for _, l := range as.Lhs {
				if id, ok := l.(*ast.Ident); ok {
					s[id.Name] = true
				}
			}
		}
	}, func(a, b bool) bool { return a || b })
}

func TestFixpointJoinsBranches(t *testing.T) {
	g := Build(parseBody(t, `func f(c bool) {
	a := 1
	if c {
		b := 2
		_ = b
	} else {
		d := 3
		_ = d
	}
	e := 4
	_ = e
}`))
	out := assignedVars(g).Out[g.Exit]
	for _, want := range []string{"a", "b", "d", "e"} {
		if !out[want] {
			t.Errorf("exit state missing %q (may-assigned on some path)", want)
		}
	}
}

func TestFixpointLoopConverges(t *testing.T) {
	g := Build(parseBody(t, `func f(n int) {
	for i := 0; i < n; i++ {
		x := i
		_ = x
	}
	y := 1
	_ = y
}`))
	out := assignedVars(g).Out[g.Exit]
	for _, want := range []string{"i", "x", "y"} {
		if !out[want] {
			t.Errorf("exit state missing %q after loop fixpoint", want)
		}
	}
}

func TestFixpointUnreachableStaysNil(t *testing.T) {
	g := Build(parseBody(t, `func f() int {
	return 1
	x := 2
	_ = x
}`))
	res := assignedVars(g)
	for _, b := range g.Blocks {
		if b == g.Entry {
			continue
		}
		if len(b.Preds) == 0 && res.In[b] != nil {
			t.Errorf("unreachable block %d has non-nil in-state", b.Index)
		}
	}
	if out := res.Out[g.Exit]; out == nil || out["x"] {
		t.Errorf("dead assignment leaked into exit state: %v", out)
	}
}

// Replay must start every reachable block from its converged in-state, skip
// unreachable blocks, and leave the stored states alone however step writes
// to the state it is handed.
func TestReplayVisitsReachableAndKeepsStates(t *testing.T) {
	g := Build(parseBody(t, `func f(c bool) int {
	a := 1
	if c {
		b := a
		return b
	}
	for i := 0; i < a; i++ {
		a = i
	}
	return a
	d := 2
	return d
}`))
	res := assignedVars(g)
	snapshot := func(states map[*Block]Facts[string, bool]) map[*Block]Facts[string, bool] {
		out := map[*Block]Facts[string, bool]{}
		for b, s := range states {
			out[b] = maps.Clone(s)
		}
		return out
	}
	in, out := snapshot(res.In), snapshot(res.Out)

	first := map[ast.Node]*Block{}
	owner := map[ast.Node]*Block{}
	for _, b := range g.Blocks {
		for i, n := range b.Nodes {
			owner[n] = b
			if i == 0 {
				first[n] = b
			}
		}
	}
	visited := map[*Block]bool{}
	res.Replay(func(s Facts[string, bool], n ast.Node) {
		b := owner[n]
		visited[b] = true
		if fb := first[n]; fb != nil && !maps.Equal(s, in[fb]) {
			t.Errorf("block %d replayed from %v, want its in-state %v", fb.Index, s, in[fb])
		}
		clear(s)
		s["replayed"] = true
	})

	unreachable := 0
	for _, b := range g.Blocks {
		if len(b.Nodes) == 0 {
			continue
		}
		if reached := in[b] != nil; visited[b] != reached {
			t.Errorf("block %d: replayed %v, reachable %v", b.Index, visited[b], reached)
		}
		if in[b] == nil {
			unreachable++
		}
	}
	if unreachable == 0 {
		t.Fatal("fixture has no unreachable block with nodes")
	}
	if len(res.In) != len(in) || len(res.Out) != len(out) {
		t.Fatalf("Replay changed the set of stored states")
	}
	for b := range in {
		if !maps.Equal(res.In[b], in[b]) {
			t.Errorf("block %d in-state changed by Replay: %v, was %v", b.Index, res.In[b], in[b])
		}
	}
	for b := range out {
		if !maps.Equal(res.Out[b], out[b]) {
			t.Errorf("block %d out-state changed by Replay: %v, was %v", b.Index, res.Out[b], out[b])
		}
	}
}
