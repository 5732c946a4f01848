package lint

import (
	"go/ast"
	"go/types"
)

// This file is the fixed-point engine the dataflow analyzers share: a
// forward worklist solver over finite lattices whose elements attach
// to types.Object keys (parameters, locals, struct fields). The
// lattice contract is deliberately small:
//
//   - a fact is a uint8 bit set; the absent key is bottom (0);
//   - join is pointwise bitwise OR.
//
// Every analysis in the suite fits this shape by encoding its lattice
// in bits: ctxflow's channel kinds use {1 = unbuffered, 2 = buffered}
// with 3 as the "conflicting definitions" top; lockcheck uses
// {1 = unlocked, 2 = locked} with 3 as "held on some paths only".
// OR-join makes every transfer function monotone by construction, so
// the worklist terminates in at most (#objects × #bits × #blocks)
// steps.
//
// Solve computes per-block entry states; Replay then walks any block's
// nodes with the evolving state, which is how analyzers attach
// diagnostics to the exact node where a bad state meets a bad
// operation.

// Fact is one lattice element: a small bit set whose meaning belongs
// to the analysis. Zero is bottom ("nothing known"); the join of two
// facts is their bitwise OR.
type Fact uint8

// State maps objects to facts. Absent keys are bottom. A State is
// owned by the solver; analyzers mutate it only inside their transfer
// functions.
type State map[types.Object]Fact

// clone returns an independent copy of s.
func (s State) clone() State {
	out := make(State, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// joinInto merges src into dst (pointwise OR) and reports whether dst
// changed.
func (dst State) joinInto(src State) bool {
	changed := false
	for k, v := range src {
		if old := dst[k]; old|v != old {
			dst[k] = old | v
			changed = true
		}
	}
	return changed
}

// Transfer interprets one CFG node, mutating the state in place. It
// is called with nodes in execution order and must be monotone in the
// OR-join sense (never clear bits conditionally on other bits being
// absent); setting a key to a new value (e.g. lockcheck's Unlock
// resetting locked → unlocked) is expressed by overwriting the key,
// which is safe because Replay re-runs the same deterministic sequence
// the solver ran.
type Transfer func(n ast.Node, s State)

// Dataflow is one forward analysis instance over one function body.
type Dataflow struct {
	CFG      *CFG
	Entry    State // entry fact for the function's first block
	Transfer Transfer
}

// Solve runs the worklist to a fixed point and returns the state at
// entry to each reachable block, keyed by block index. Unreachable
// blocks have no entry (they never execute).
func (d *Dataflow) Solve() []State {
	n := len(d.CFG.Blocks)
	in := make([]State, n)
	entry := d.CFG.Entry
	in[entry.Index] = d.Entry.clone()

	work := []*Block{entry}
	queued := make([]bool, n)
	queued[entry.Index] = true
	for len(work) > 0 {
		blk := work[0]
		work = work[1:]
		queued[blk.Index] = false

		out := in[blk.Index].clone()
		for _, node := range blk.Nodes {
			d.Transfer(node, out)
		}
		for _, succ := range blk.Succs {
			target := in[succ.Index]
			if target == nil {
				in[succ.Index] = out.clone()
			} else if !target.joinInto(out) {
				continue
			}
			if !queued[succ.Index] {
				queued[succ.Index] = true
				work = append(work, succ)
			}
		}
	}
	return in
}

// Replay re-walks every reachable block, invoking visit with each node
// and the state in force just before that node executes, then applying
// the transfer. This is the reporting pass: Solve finds the fixed
// point, Replay pins diagnostics to nodes.
func (d *Dataflow) Replay(in []State, visit func(n ast.Node, s State)) {
	for _, blk := range d.CFG.Blocks {
		entry := in[blk.Index]
		if entry == nil {
			continue // unreachable
		}
		s := entry.clone()
		for _, node := range blk.Nodes {
			visit(node, s)
			d.Transfer(node, s)
		}
	}
}

// -------- shared object plumbing used by the dataflow analyzers --------

// inspectExec walks the subtree of one CFG node, skipping function
// literals: a closure's body runs when the closure is called, not
// where it is written, so its statements are not part of this node's
// execution.
func inspectExec(n ast.Node, f func(ast.Node) bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		return f(m)
	})
}

// usedObject resolves an identifier to the object it uses or defines.
func usedObject(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

// rootObject resolves the base identifier of an expression chain
// (unwrapping selectors, indexing, derefs — see rootIdent) to its
// object, or nil.
func rootObject(info *types.Info, e ast.Expr) types.Object {
	id := rootIdent(e)
	if id == nil {
		return nil
	}
	return usedObject(info, id)
}

// namedType unwraps pointers and aliases down to a *types.Named, or
// nil.
func namedType(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := types.Unalias(t).(*types.Named); ok {
		return n
	}
	return nil
}

// isNamedFrom reports whether t (or *t) is the named type pkgPath.name.
func isNamedFrom(t types.Type, pkgPath, name string) bool {
	n := namedType(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == pkgPath && n.Obj().Name() == name
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool { return isNamedFrom(t, "context", "Context") }
