// Package flow builds function-level control-flow graphs from go/ast
// bodies and runs forward-dataflow fixpoints over them — the engine that
// graduates the verus-lint suite from syntactic AST walks to path-aware
// verification (DESIGN.md §12). It stays inside the repository's
// stdlib-only constraint: no x/tools, no SSA; blocks carry the original
// ast nodes so analyzers keep working against go/types information.
//
// # Graph shape
//
// Build decomposes a function body into basic blocks. A block's Nodes are
// the statements and condition expressions that execute straight-line, in
// evaluation order; composite statements (if/for/range/switch/select) are
// decomposed into their leaf parts, so a node never contains a nested
// body that is also represented elsewhere in the graph. Function literals
// are opaque expressions here: a closure's body is its own graph, built
// by the analyzer that cares about it.
//
// Two synthetic blocks bracket every graph. Entry starts the function;
// Exit is the single sink every return statement and the final
// fall-off-the-end path feed into. Deferred calls are appended to
// Exit.Nodes in reverse registration order — the conservative model that
// every registered defer runs exactly once at function exit, regardless
// of which path registered it (see "Conservative fallbacks").
//
// # Conservative fallbacks
//
// The builder handles the structured control flow the repository's
// determinism contract permits. Three constructs make precise block
// structure ambiguous and mark the graph instead of guessing:
//
//   - goto statements,
//   - labeled statements (and labeled break/continue),
//
// either sets Graph.Unsupported to the offending node and analyzers must
// fall back conservatively (poolleak, for example, reports that it cannot
// verify the function rather than silently passing it). Defers are
// modeled as always-running-at-exit even when registered conditionally,
// which can only under-report (a defer assumed to run releases state it
// may not have); and a call to the builtin panic ends its path without
// reaching Exit, so abandoned state on a panicking path is never
// reported — the process is dying, not leaking.
package flow

import (
	"go/ast"
	"go/token"
)

// Graph is one function body's control-flow graph.
type Graph struct {
	// Blocks lists every block in creation order; Entry is Blocks[0].
	Blocks []*Block
	// Entry is the block control enters at.
	Entry *Block
	// Exit is the single synthetic sink: every return edge and the
	// fall-off-the-end path lead here, and its Nodes are the function's
	// deferred calls (reverse registration order).
	Exit *Block
	// Unsupported is non-nil when the body contains a construct the
	// builder does not model precisely (goto, labels). The graph is still
	// structurally valid but may miss paths; analyzers must degrade
	// conservatively.
	Unsupported ast.Node
}

// Block is one basic block: nodes that execute straight-line, then a
// branch to the successors.
type Block struct {
	// Index is the block's position in Graph.Blocks.
	Index int
	// Nodes are the statements and leaf expressions executed in order.
	Nodes []ast.Node
	// Succs are the possible next blocks.
	Succs []*Block
	// Preds are the blocks that can branch here (inverse of Succs),
	// in construction order — deterministic, so fixpoint join order is too.
	Preds []*Block
}

// frame is one enclosing breakable/continuable construct during building.
type frame struct {
	brk  *Block // break target (loops, switch, select)
	cont *Block // continue target (loops only; nil for switch/select)
}

type builder struct {
	g      *Graph
	cur    *Block // nil after a terminating statement (return/break/panic)
	frames []frame
	defers []*ast.CallExpr
	// fell records that the previous statement was an unlabeled
	// fallthrough, consumed by the enclosing switch builder.
	fell bool
}

// Build constructs the CFG for one function body. A nil body (declaration
// without definition) yields a trivial Entry→Exit graph.
func Build(body *ast.BlockStmt) *Graph {
	b := &builder{g: &Graph{}}
	entry := b.newBlock()
	exit := b.newBlock()
	b.g.Entry, b.g.Exit = entry, exit
	b.cur = entry
	if body != nil {
		b.stmtList(body.List)
	}
	if b.cur != nil {
		b.edge(b.cur, exit)
	}
	// Deferred calls run LIFO at every exit; Exit is the one sink, so they
	// live there.
	for i := len(b.defers) - 1; i >= 0; i-- {
		exit.Nodes = append(exit.Nodes, b.defers[i])
	}
	return b.g
}

func (b *builder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *builder) edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// add appends a node to the current block, materializing a dead block for
// unreachable code so building can continue without special cases.
func (b *builder) add(n ast.Node) {
	if n == nil {
		return
	}
	if b.cur == nil {
		b.cur = b.newBlock() // unreachable: no predecessors
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

func (b *builder) unsupported(n ast.Node) {
	if b.g.Unsupported == nil {
		b.g.Unsupported = n
	}
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// innermostLoop returns the nearest frame with a continue target.
func (b *builder) innermostLoop() *frame {
	for i := len(b.frames) - 1; i >= 0; i-- {
		if b.frames[i].cont != nil {
			return &b.frames[i]
		}
	}
	return nil
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.IfStmt:
		b.add(s.Init)
		b.add(s.Cond)
		condBlk := b.cur
		if condBlk == nil {
			condBlk = b.newBlock()
			b.cur = condBlk
		}
		after := b.newBlock()
		then := b.newBlock()
		b.edge(condBlk, then)
		var elseBlk *Block
		if s.Else != nil {
			elseBlk = b.newBlock()
			b.edge(condBlk, elseBlk)
		} else {
			b.edge(condBlk, after)
		}
		b.cur = then
		b.stmt(s.Body)
		if b.cur != nil {
			b.edge(b.cur, after)
		}
		if s.Else != nil {
			b.cur = elseBlk
			b.stmt(s.Else)
			if b.cur != nil {
				b.edge(b.cur, after)
			}
		}
		b.cur = after

	case *ast.ForStmt:
		b.add(s.Init)
		head := b.newBlock()
		if b.cur != nil {
			b.edge(b.cur, head)
		}
		if s.Cond != nil {
			head.Nodes = append(head.Nodes, s.Cond)
		}
		body := b.newBlock()
		after := b.newBlock()
		b.edge(head, body)
		if s.Cond != nil {
			b.edge(head, after)
		}
		// The continue target is the post statement's block when there is
		// one, else the head.
		cont := head
		var post *Block
		if s.Post != nil {
			post = b.newBlock()
			post.Nodes = append(post.Nodes, s.Post)
			b.edge(post, head)
			cont = post
		}
		b.frames = append(b.frames, frame{brk: after, cont: cont})
		b.cur = body
		b.stmt(s.Body)
		b.frames = b.frames[:len(b.frames)-1]
		if b.cur != nil {
			b.edge(b.cur, cont)
		}
		b.cur = after

	case *ast.RangeStmt:
		// The ranged expression is evaluated once, before the loop; the
		// per-iteration key/value assignment lives in the head.
		b.add(s.X)
		head := b.newBlock()
		if b.cur != nil {
			b.edge(b.cur, head)
		}
		if s.Key != nil {
			head.Nodes = append(head.Nodes, s.Key)
		}
		if s.Value != nil {
			head.Nodes = append(head.Nodes, s.Value)
		}
		body := b.newBlock()
		after := b.newBlock()
		b.edge(head, body)
		b.edge(head, after)
		b.frames = append(b.frames, frame{brk: after, cont: head})
		b.cur = body
		b.stmt(s.Body)
		b.frames = b.frames[:len(b.frames)-1]
		if b.cur != nil {
			b.edge(b.cur, head)
		}
		b.cur = after

	case *ast.SwitchStmt:
		b.add(s.Init)
		b.add(s.Tag)
		b.switchClauses(s.Body.List, func(c ast.Stmt, blk *Block) []ast.Stmt {
			cc := c.(*ast.CaseClause)
			for _, e := range cc.List {
				blk.Nodes = append(blk.Nodes, e)
			}
			return cc.Body
		}, hasDefaultCase(s.Body.List))

	case *ast.TypeSwitchStmt:
		b.add(s.Init)
		b.add(s.Assign)
		b.switchClauses(s.Body.List, func(c ast.Stmt, blk *Block) []ast.Stmt {
			return c.(*ast.CaseClause).Body
		}, hasDefaultCase(s.Body.List))

	case *ast.SelectStmt:
		// Every comm clause is a possible successor; without a default the
		// select blocks until one fires, so there is no skip edge either way
		// (an empty select simply never reaches the join).
		b.switchClauses(s.Body.List, func(c ast.Stmt, blk *Block) []ast.Stmt {
			cc := c.(*ast.CommClause)
			if cc.Comm != nil {
				blk.Nodes = append(blk.Nodes, cc.Comm)
			}
			return cc.Body
		}, true)

	case *ast.ReturnStmt:
		b.add(s)
		b.edge(b.cur, b.g.Exit)
		b.cur = nil

	case *ast.BranchStmt:
		switch {
		case s.Label != nil || s.Tok == token.GOTO:
			b.unsupported(s)
			b.cur = nil
		case s.Tok == token.BREAK:
			if len(b.frames) > 0 {
				if b.cur == nil {
					b.cur = b.newBlock()
				}
				b.edge(b.cur, b.frames[len(b.frames)-1].brk)
			}
			b.cur = nil
		case s.Tok == token.CONTINUE:
			if f := b.innermostLoop(); f != nil {
				if b.cur == nil {
					b.cur = b.newBlock()
				}
				b.edge(b.cur, f.cont)
			}
			b.cur = nil
		case s.Tok == token.FALLTHROUGH:
			b.fell = true
		}

	case *ast.LabeledStmt:
		b.unsupported(s)
		b.stmt(s.Stmt)

	case *ast.DeferStmt:
		b.defers = append(b.defers, s.Call)

	case *ast.ExprStmt:
		b.add(s)
		if isPanicCall(s.X) {
			// The path dies here; state abandoned on it is not a leak.
			b.cur = nil
		}

	case nil:
		// nothing

	default:
		// Assignments, declarations, sends, go statements, inc/dec, empty
		// statements: straight-line nodes.
		b.add(s)
	}
}

// switchClauses wires the shared switch/select clause topology: the
// current block fans out to one block per clause, clause bodies run under
// a break frame, and every non-terminated clause joins at `after`. When
// exhaustive is false (a switch without a default), the dispatch block
// also branches straight to the join.
func (b *builder) switchClauses(clauses []ast.Stmt, open func(ast.Stmt, *Block) []ast.Stmt, exhaustive bool) {
	dispatch := b.cur
	if dispatch == nil {
		dispatch = b.newBlock()
		b.cur = dispatch
	}
	after := b.newBlock()
	blocks := make([]*Block, len(clauses))
	bodies := make([][]ast.Stmt, len(clauses))
	for i, c := range clauses {
		blocks[i] = b.newBlock()
		b.edge(dispatch, blocks[i])
		bodies[i] = open(c, blocks[i])
	}
	if !exhaustive {
		b.edge(dispatch, after)
	}
	b.frames = append(b.frames, frame{brk: after})
	for i := range clauses {
		b.cur = blocks[i]
		b.fell = false
		b.stmtList(bodies[i])
		if b.fell && i+1 < len(clauses) {
			// fallthrough: control continues in the next clause's body.
			if b.cur == nil {
				b.cur = b.newBlock()
			}
			b.edge(b.cur, blocks[i+1])
		} else if b.cur != nil {
			b.edge(b.cur, after)
		}
	}
	b.fell = false
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = after
}

func hasDefaultCase(clauses []ast.Stmt) bool {
	for _, c := range clauses {
		if cc, ok := c.(*ast.CaseClause); ok && len(cc.List) == 0 {
			return true
		}
	}
	return false
}

// isPanicCall reports whether e is a direct call to the builtin panic.
// Purely syntactic: a local function named panic would shadow the builtin,
// which no sim package does (and misclassifying one only prunes a path).
func isPanicCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}
