package flow

import (
	"go/ast"
	"maps"
)

// Forward worklist fixpoint over a Graph. The lattice is a map from tracked
// key to fact, with nil as the implicit bottom ("path not reached"). The
// analyzer supplies only a per-node step and a per-key merge; the engine
// owns the empty entry state, the join (a key on one path is kept, a key on
// both takes merge), the equality test and the copy before each block, so
// step may write to the state it is given.

// Facts is one program point's dataflow state: the fact for each tracked
// key. A nil Facts is bottom, a point no path reaches.
type Facts[K, V comparable] map[K]V

// Result carries the converged per-block states. In[b] is nil for blocks
// no path reaches.
type Result[K, V comparable] struct {
	In, Out map[*Block]Facts[K, V]
	g       *Graph
}

// Fixpoint runs step over every node of every reachable block to
// convergence in reverse post-order and returns the per-block in/out
// states. merge combines the facts two joining paths hold for one key. The
// iteration count is capped as a backstop against a non-monotone step; the
// lattices the verus-lint analyzers use are finite and converge far below
// it.
func Fixpoint[K, V comparable](g *Graph, step func(Facts[K, V], ast.Node), merge func(a, b V) V) *Result[K, V] {
	order := reversePostorder(g)
	res := &Result[K, V]{In: map[*Block]Facts[K, V]{}, Out: map[*Block]Facts[K, V]{}, g: g}
	inList := map[*Block]bool{}
	var work []*Block
	push := func(b *Block) {
		if !inList[b] {
			inList[b] = true
			work = append(work, b)
		}
	}
	for _, b := range order {
		push(b)
	}
	budget := 64*len(g.Blocks) + 256
	for len(work) > 0 && budget > 0 {
		budget--
		b := work[0]
		work = work[1:]
		inList[b] = false

		var in Facts[K, V]
		if b == g.Entry {
			in = Facts[K, V]{}
		}
		for _, p := range b.Preds {
			if o := res.Out[p]; o != nil {
				if in == nil {
					in = o
				} else {
					in = join(in, o, merge)
				}
			}
		}
		if in == nil {
			continue // unreachable
		}
		res.In[b] = in
		out := run(b, in, step)
		if old, ok := res.Out[b]; ok && maps.Equal(old, out) {
			continue
		}
		res.Out[b] = out
		for _, s := range b.Succs {
			push(s)
		}
	}
	return res
}

// Replay runs step once more over every reachable block, in block order,
// starting from each converged in-state: the reporting pass, with a step
// that may report what the fixpoint's step only tracked. The stored states
// are left unchanged.
func (r *Result[K, V]) Replay(step func(Facts[K, V], ast.Node)) {
	for _, b := range r.g.Blocks {
		if in := r.In[b]; in != nil {
			run(b, in, step)
		}
	}
}

// run applies step to a copy of in for each of the block's nodes.
func run[K, V comparable](b *Block, in Facts[K, V], step func(Facts[K, V], ast.Node)) Facts[K, V] {
	s := maps.Clone(in)
	for _, n := range b.Nodes {
		step(s, n)
	}
	return s
}

// join returns a new state holding every key of a and b, merging the facts
// of keys present in both.
func join[K, V comparable](a, b Facts[K, V], merge func(a, b V) V) Facts[K, V] {
	out := maps.Clone(a)
	for k, v := range b {
		if old, ok := out[k]; ok {
			v = merge(old, v)
		}
		out[k] = v
	}
	return out
}

// reversePostorder orders blocks so predecessors tend to precede
// successors, which lets the worklist converge in few sweeps. Blocks
// unreachable from Entry are appended afterwards (they stay nil-state but
// keep the traversal total and deterministic).
func reversePostorder(g *Graph) []*Block {
	seen := make([]bool, len(g.Blocks))
	var post []*Block
	var visit func(b *Block)
	visit = func(b *Block) {
		if seen[b.Index] {
			return
		}
		seen[b.Index] = true
		for _, s := range b.Succs {
			visit(s)
		}
		post = append(post, b)
	}
	visit(g.Entry)
	out := make([]*Block, 0, len(g.Blocks))
	for i := len(post) - 1; i >= 0; i-- {
		out = append(out, post[i])
	}
	for _, b := range g.Blocks {
		if !seen[b.Index] {
			out = append(out, b)
		}
	}
	return out
}
