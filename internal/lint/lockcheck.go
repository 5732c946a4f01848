package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockCheck enforces mutex discipline on structs that carry one: when
// a field is written under the mutex in one method, every method of
// that receiver must hold the mutex to touch the field. The lock
// state is a dataflow over each method's CFG — Lock/RLock/Unlock/
// RUnlock calls on the receiver's mutex fields move the state, and
// `defer mu.Unlock()` is handled by the CFG's exit-block replay, so
// the body after a defer is correctly "locked until return".
//
// The rules, per receiver type with a sync.Mutex/RWMutex field:
//
//   - guarded field: plainly written at least once in a
//     definitely-locked state. (Writes define guardedness; reads
//     don't, so immutable-after-construction fields that happen to be
//     read inside critical sections stay unguarded.)
//   - a plain access to a guarded field in a definitely-unlocked
//     state is flagged; the "maybe" state (locked on some paths) never
//     flags.
//   - a write to a guarded field while holding only the read lock is
//     flagged.
//   - a field accessed through sync/atomic somewhere but plainly
//     written without the lock elsewhere is flagged (pick one
//     discipline).
//
// Functions whose callers own the lock declare it with //ffc:locked
// in the doc comment, which sets the method's entry state to locked.
// Constructors are free: only methods of the receiver are analyzed.
var LockCheck = &Analyzer{
	Name: "lockcheck",
	Doc: "report struct fields written under a sync.Mutex in one method " +
		"but accessed outside the lock, or atomically inconsistently, in another",
	Run: runLockCheck,
}

// lockedDirective marks a method whose callers hold the receiver's
// mutex (e.g. an unexported helper called only from locked sections).
const lockedDirective = "//ffc:locked"

const (
	lockU Fact = 1 // definitely unlocked
	lockW Fact = 2 // write lock held
	lockR Fact = 4 // read lock held
)

// lockAccess is one receiver-field access observed during replay.
type lockAccess struct {
	field  *types.Var
	pos    token.Pos
	write  bool
	atomic bool
	state  Fact // combined lock state at the access
}

// lockRun analyzes the methods of one receiver type.
type lockRun struct {
	pass        *Pass
	recvObj     types.Object
	mutexFields map[*types.Var]bool
	mutexes     []*types.Var
	accesses    *[]lockAccess
}

func runLockCheck(pass *Pass) error {
	type recvKey = *types.TypeName
	accesses := map[recvKey][]lockAccess{}

	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Recv == nil || pass.IsTestFile(fd.Pos()) {
				continue
			}
			if len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
				continue // unnamed receiver: no field access possible
			}
			recvIdent := fd.Recv.List[0].Names[0]
			recvObj := pass.TypesInfo.Defs[recvIdent]
			if recvObj == nil || recvIdent.Name == "_" {
				continue
			}
			named := namedType(recvObj.Type())
			if named == nil || named.Obj().Pkg() != pass.Pkg {
				continue
			}
			st, ok := named.Underlying().(*types.Struct)
			if !ok {
				continue
			}
			var mutexes []*types.Var
			mutexFields := map[*types.Var]bool{}
			for i := 0; i < st.NumFields(); i++ {
				fv := st.Field(i)
				if isNamedFrom(fv.Type(), "sync", "Mutex") || isNamedFrom(fv.Type(), "sync", "RWMutex") {
					mutexes = append(mutexes, fv)
					mutexFields[fv] = true
				}
			}
			if len(mutexes) == 0 {
				continue
			}

			entry := State{}
			start := lockU
			if funcDirective(fd, lockedDirective) {
				start = lockW
			}
			for _, mu := range mutexes {
				entry[mu] = start
			}

			acc := accesses[named.Obj()]
			lr := &lockRun{
				pass:        pass,
				recvObj:     recvObj,
				mutexFields: mutexFields,
				mutexes:     mutexes,
				accesses:    &acc,
			}
			d := &Dataflow{CFG: NewCFG(fd.Body), Entry: entry, Transfer: lr.transfer}
			d.Replay(d.Solve(), lr.visit)
			accesses[named.Obj()] = acc
		}
	}

	for _, acc := range accesses {
		reportLockAccesses(pass, acc)
	}
	return nil
}

// reportLockAccesses classifies one receiver type's accesses and
// reports the violations.
func reportLockAccesses(pass *Pass, acc []lockAccess) {
	guarded := map[*types.Var]bool{}
	atomicF := map[*types.Var]bool{}
	for _, a := range acc {
		if a.atomic {
			atomicF[a.field] = true
		} else if a.write && a.state == lockW {
			guarded[a.field] = true
		}
	}
	reported := map[token.Pos]bool{} // defer-call nodes replay twice
	for _, a := range acc {
		if a.atomic || reported[a.pos] {
			continue
		}
		switch {
		case guarded[a.field] && a.state == lockU:
			reported[a.pos] = true
			pass.Reportf(a.pos,
				"field %s is written under the mutex elsewhere but accessed here without holding it", a.field.Name())
		case guarded[a.field] && a.write && a.state == lockR:
			reported[a.pos] = true
			pass.Reportf(a.pos,
				"write to mutex-guarded field %s while holding only the read lock", a.field.Name())
		case !guarded[a.field] && atomicF[a.field] && a.write && a.state == lockU:
			reported[a.pos] = true
			pass.Reportf(a.pos,
				"field %s is accessed atomically elsewhere but written plainly here without the lock", a.field.Name())
		}
	}
}

// transfer moves the lock state on Lock/RLock/Unlock/RUnlock calls on
// the receiver's mutex fields. Defer registrations are skipped: the
// deferred call itself replays in the exit block.
func (lr *lockRun) transfer(n ast.Node, s State) {
	if _, ok := n.(*ast.DeferStmt); ok {
		return
	}
	if rs, ok := n.(*ast.RangeStmt); ok {
		n = rs.X
	}
	inspectExec(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		mu := lr.mutexOf(sel.X)
		if mu == nil {
			return true
		}
		switch sel.Sel.Name {
		case "Lock":
			s[mu] = lockW
		case "RLock":
			s[mu] = lockR
		case "Unlock", "RUnlock":
			s[mu] = lockU
		}
		return true
	})
}

// visit records every receiver-field access with the lock state in
// force.
func (lr *lockRun) visit(n ast.Node, s State) {
	if rs, ok := n.(*ast.RangeStmt); ok {
		lr.collectReads(rs.X, s) // the body replays in its own blocks
		return
	}
	switch st := n.(type) {
	case *ast.AssignStmt:
		for _, lhs := range st.Lhs {
			lr.collectWrite(lhs, s)
		}
		for _, rhs := range st.Rhs {
			lr.collectReads(rhs, s)
		}
	case *ast.IncDecStmt:
		lr.collectWrite(st.X, s)
	default:
		lr.collectReads(n, s)
	}
}

// collectWrite records the receiver field (if any) at the root of an
// assignment target: c.bytes, ck.done[i], *c.ptr all write their
// first-level field.
func (lr *lockRun) collectWrite(lhs ast.Expr, s State) {
	e := lhs
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			lr.collectReads(x.Index, s)
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			if fv := lr.fieldOf(x); fv != nil {
				lr.record(fv, x.Sel.Pos(), true, false, s)
			}
			return
		default:
			return
		}
	}
}

// collectReads records plain field reads and atomic accesses in an
// expression tree.
func (lr *lockRun) collectReads(n ast.Node, s State) {
	if n == nil {
		return
	}
	inspectExec(n, func(m ast.Node) bool {
		switch x := m.(type) {
		case *ast.CallExpr:
			// atomic.AddInt64(&c.n, 1) and friends: the field is
			// accessed atomically, not plainly.
			if f := calleeFunc(lr.pass.TypesInfo, x); f != nil && f.Pkg() != nil && f.Pkg().Path() == "sync/atomic" {
				for _, a := range x.Args {
					if ue, ok := ast.Unparen(a).(*ast.UnaryExpr); ok && ue.Op == token.AND {
						if sel, ok := ast.Unparen(ue.X).(*ast.SelectorExpr); ok {
							if fv := lr.fieldOf(sel); fv != nil {
								lr.record(fv, sel.Sel.Pos(), false, true, s)
							}
						}
					}
				}
				return false
			}
		case *ast.SelectorExpr:
			if fv := lr.fieldOf(x); fv != nil {
				// Fields of sync/atomic types (atomic.Int64, ...) are
				// always accessed atomically by construction.
				atomic := false
				if nt := namedType(fv.Type()); nt != nil && nt.Obj().Pkg() != nil && nt.Obj().Pkg().Path() == "sync/atomic" {
					atomic = true
				}
				lr.record(fv, x.Sel.Pos(), false, atomic, s)
				return false
			}
		}
		return true
	})
}

func (lr *lockRun) record(fv *types.Var, pos token.Pos, write, atomic bool, s State) {
	*lr.accesses = append(*lr.accesses, lockAccess{
		field:  fv,
		pos:    pos,
		write:  write,
		atomic: atomic,
		state:  lr.combinedState(s),
	})
}

// combinedState folds the states of all the struct's mutexes: with one
// mutex (the common case) this is exact; with several, disagreement
// lands in "maybe", which never flags.
func (lr *lockRun) combinedState(s State) Fact {
	var st Fact
	for _, mu := range lr.mutexes {
		st |= s[mu]
	}
	if st == 0 {
		st = lockU
	}
	return st
}

// mutexOf resolves an expression to one of the receiver's mutex
// fields (the `ck.mu` in ck.mu.Lock()), or nil.
func (lr *lockRun) mutexOf(e ast.Expr) *types.Var {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok || usedObject(lr.pass.TypesInfo, id) != lr.recvObj {
		return nil
	}
	selection := lr.pass.TypesInfo.Selections[sel]
	if selection == nil || selection.Kind() != types.FieldVal {
		return nil
	}
	fv, ok := selection.Obj().(*types.Var)
	if !ok || !lr.mutexFields[fv] {
		return nil
	}
	return fv
}

// fieldOf resolves a selector to a non-mutex field of the method's
// receiver, or nil.
func (lr *lockRun) fieldOf(sel *ast.SelectorExpr) *types.Var {
	e := sel.X
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			goto unwrapped
		}
	}
unwrapped:
	id, ok := e.(*ast.Ident)
	if !ok || usedObject(lr.pass.TypesInfo, id) != lr.recvObj {
		return nil
	}
	selection := lr.pass.TypesInfo.Selections[sel]
	if selection == nil || selection.Kind() != types.FieldVal {
		return nil
	}
	fv, ok := selection.Obj().(*types.Var)
	if !ok || lr.mutexFields[fv] {
		return nil
	}
	return fv
}
