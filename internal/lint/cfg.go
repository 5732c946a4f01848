package lint

import (
	"go/ast"
	"go/token"
)

// This file builds control-flow graphs from go/ast function bodies —
// the substrate the dataflow analyzers (ctxflow, lockcheck) solve
// over. The construction covers the constructs that matter for
// an intraprocedural lattice analysis:
//
//   - branches: if/else, switch, type switch, and select each fork the
//     graph; the per-case bodies rejoin at a common successor.
//   - loops: for and range get a head block with a back edge, so the
//     worklist solver iterates loop bodies to a fixed point.
//   - short-circuit operators: && and || inside if/for conditions are
//     decomposed into separate condition blocks, so the right operand
//     is only "executed" on the paths where Go would evaluate it.
//   - defer: deferred calls are collected in syntactic order and
//     replayed (last-in first-out) in a dedicated block that every
//     return path passes through before Exit. This is what lets
//     lockcheck treat `defer mu.Unlock()` as "the lock is held until
//     the function returns".
//   - break/continue (with and without labels), goto, fallthrough, and
//     return all produce the obvious edges.
//
// Blocks carry ast.Node slices rather than instructions: statements
// mostly, but decomposed conditions appear as bare expressions. A
// transfer function sees nodes in execution order within a block and
// interprets them however it likes; panics and calls that never return
// are not modeled (their successors are simply never reached at run
// time, which only makes the analyses conservative).

// Block is one basic block: nodes executed in order, then a transfer
// of control to one of Succs.
type Block struct {
	// Index is the block's position in CFG.Blocks (construction order;
	// Entry is 0).
	Index int
	// Nodes are the statements and decomposed condition expressions
	// executed in this block, in order.
	Nodes []ast.Node
	// Succs are the possible successors.
	Succs []*Block
}

// CFG is the control-flow graph of one function body.
type CFG struct {
	// Entry is the block control enters at.
	Entry *Block
	// Exit is the single synthetic exit block. Its Nodes are the
	// function's deferred calls in reverse registration order, so an
	// analysis observes them on every path out of the function.
	Exit *Block
	// Blocks lists every block, including unreachable ones (a block
	// after an unconditional return still exists; the solver simply
	// never visits it).
	Blocks []*Block
}

// cfgBuilder accumulates the graph. cur is the block under
// construction; nil means the current position is unreachable (just
// after a return or branch), in which case appended statements land in
// a fresh detached block.
type cfgBuilder struct {
	cfg *CFG
	cur *Block

	// breakTo / continueTo are the innermost targets, with the labeled
	// variants keyed by label name.
	breakTo     []*Block
	continueTo  []*Block
	labelBreak  map[string]*Block
	labelCont   map[string]*Block
	labelBlocks map[string]*Block // goto targets
	gotos       []pendingGoto

	// defers collects deferred calls in registration order for replay
	// in the exit block.
	defers []ast.Node

	// returnBlocks are blocks ended by a return statement, wired to
	// Exit once it exists.
	returnBlocks []*Block

	// pendingLabel is the label of the statement being built, consumed
	// by the next loop/switch/select so labeled break/continue resolve.
	pendingLabel string
}

type pendingGoto struct {
	from  *Block
	label string
}

// NewCFG builds the control-flow graph of body. A nil body (external
// function) yields a graph whose entry is its exit.
func NewCFG(body *ast.BlockStmt) *CFG {
	cfg := &CFG{}
	b := &cfgBuilder{
		cfg:         cfg,
		labelBreak:  map[string]*Block{},
		labelCont:   map[string]*Block{},
		labelBlocks: map[string]*Block{},
	}
	entry := b.newBlock()
	cfg.Entry = entry
	b.cur = entry
	if body != nil {
		b.stmtList(body.List)
	}
	// Every fall-off-the-end path and every return funnels through the
	// deferred-calls block into Exit.
	exit := b.newBlock()
	for i := len(b.defers) - 1; i >= 0; i-- {
		exit.Nodes = append(exit.Nodes, b.defers[i])
	}
	cfg.Exit = exit
	b.jump(exit)
	// Returns were wired straight to a placeholder; patch them now.
	for _, g := range b.gotos {
		if target, ok := b.labelBlocks[g.label]; ok {
			g.from.Succs = append(g.from.Succs, target)
		} else {
			// Unresolvable goto (label in an unvisited region): treat as
			// an exit edge so the analysis stays conservative.
			g.from.Succs = append(g.from.Succs, exit)
		}
	}
	for _, blk := range b.returnBlocks {
		blk.Succs = append(blk.Succs, exit)
	}
	return cfg
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

// add appends a node to the current block, reviving an unreachable
// position into a fresh detached block.
func (b *cfgBuilder) add(n ast.Node) {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

// jump ends the current block with an edge to target and leaves the
// position unreachable.
func (b *cfgBuilder) jump(target *Block) {
	if b.cur != nil {
		b.cur.Succs = append(b.cur.Succs, target)
	}
	b.cur = nil
}

// startAt makes target the current block.
func (b *cfgBuilder) startAt(target *Block) { b.cur = target }

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.IfStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		thenBlk := b.newBlock()
		after := b.newBlock()
		elseTarget := after
		var elseBlk *Block
		if s.Else != nil {
			elseBlk = b.newBlock()
			elseTarget = elseBlk
		}
		b.cond(s.Cond, thenBlk, elseTarget)
		b.startAt(thenBlk)
		b.stmtList(s.Body.List)
		b.jump(after)
		if s.Else != nil {
			b.startAt(elseBlk)
			b.stmt(s.Else)
			b.jump(after)
		}
		b.startAt(after)

	case *ast.ForStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		head := b.newBlock()
		body := b.newBlock()
		after := b.newBlock()
		post := head
		if s.Post != nil {
			post = b.newBlock()
		}
		b.jump(head)
		b.startAt(head)
		if s.Cond != nil {
			b.cond(s.Cond, body, after)
		} else {
			b.jump(body)
		}
		b.pushLoop(after, post)
		b.startAt(body)
		b.stmtList(s.Body.List)
		b.popLoop()
		if s.Post != nil {
			b.jump(post)
			b.startAt(post)
			b.add(s.Post)
		}
		b.jump(head)
		b.startAt(after)

	case *ast.RangeStmt:
		head := b.newBlock()
		body := b.newBlock()
		after := b.newBlock()
		b.jump(head)
		b.startAt(head)
		// The RangeStmt node itself stands for "bind Key/Value from X";
		// transfer functions interpret it.
		b.add(s)
		b.cur.Succs = append(b.cur.Succs, body, after)
		b.cur = nil
		b.pushLoop(after, head)
		b.startAt(body)
		b.stmtList(s.Body.List)
		b.popLoop()
		b.jump(head)
		b.startAt(after)

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.caseBodies(s.Body.List, func(cc *ast.CaseClause) []ast.Stmt { return cc.Body })

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Assign)
		b.caseBodies(s.Body.List, func(cc *ast.CaseClause) []ast.Stmt { return cc.Body })

	case *ast.SelectStmt:
		after := b.newBlock()
		fork := b.cur
		if fork == nil {
			fork = b.newBlock()
			b.cur = fork
		}
		b.pushBreakable(after)
		for _, clause := range s.Body.List {
			cc := clause.(*ast.CommClause)
			caseBlk := b.newBlock()
			fork.Succs = append(fork.Succs, caseBlk)
			b.startAt(caseBlk)
			if cc.Comm != nil {
				b.add(cc.Comm)
			}
			b.stmtList(cc.Body)
			b.jump(after)
		}
		b.popBreakable()
		if len(s.Body.List) == 0 {
			fork.Succs = append(fork.Succs, after)
		}
		b.cur = nil
		b.startAt(after)

	case *ast.LabeledStmt:
		target := b.newBlock()
		b.jump(target)
		b.startAt(target)
		b.labelBlocks[s.Label.Name] = target
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""

	case *ast.ReturnStmt:
		b.add(s)
		if b.cur != nil {
			b.returnBlocks = append(b.returnBlocks, b.cur)
		}
		b.cur = nil

	case *ast.BranchStmt:
		b.add(s)
		switch s.Tok {
		case token.BREAK:
			if s.Label != nil {
				b.jumpTo(b.labelBreak[s.Label.Name])
			} else if len(b.breakTo) > 0 {
				b.jumpTo(b.breakTo[len(b.breakTo)-1])
			} else {
				b.cur = nil
			}
		case token.CONTINUE:
			if s.Label != nil {
				b.jumpTo(b.labelCont[s.Label.Name])
			} else if len(b.continueTo) > 0 {
				b.jumpTo(b.continueTo[len(b.continueTo)-1])
			} else {
				b.cur = nil
			}
		case token.GOTO:
			if b.cur != nil {
				b.gotos = append(b.gotos, pendingGoto{from: b.cur, label: s.Label.Name})
			}
			b.cur = nil
		case token.FALLTHROUGH:
			// Handled by caseBodies via the fallthrough edge below; the
			// node itself is already recorded.
		}

	case *ast.DeferStmt:
		// The registration is a node (its arguments are evaluated here);
		// the call body runs in the exit block.
		b.add(s)
		b.defers = append(b.defers, s.Call)

	default:
		// Plain statements: assignments, declarations, expression
		// statements, sends, inc/dec, go, empty.
		b.add(s)
	}
}

// caseBodies wires a switch/type-switch: every case body is a
// successor of the current block, fallthrough chains to the next body,
// and a missing default adds a direct edge to after.
func (b *cfgBuilder) caseBodies(clauses []ast.Stmt, body func(*ast.CaseClause) []ast.Stmt) {
	after := b.newBlock()
	fork := b.cur
	if fork == nil {
		fork = b.newBlock()
		b.cur = fork
	}
	b.pushBreakable(after)
	hasDefault := false
	blocks := make([]*Block, len(clauses))
	for i := range clauses {
		blocks[i] = b.newBlock()
	}
	for i, clause := range clauses {
		cc := clause.(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
		}
		for _, e := range cc.List {
			fork.Nodes = append(fork.Nodes, e)
		}
		fork.Succs = append(fork.Succs, blocks[i])
		b.startAt(blocks[i])
		stmts := body(cc)
		fallsThrough := false
		if n := len(stmts); n > 0 {
			if br, ok := stmts[n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				fallsThrough = true
			}
		}
		b.stmtList(stmts)
		if fallsThrough && i+1 < len(blocks) {
			b.jump(blocks[i+1])
		} else {
			b.jump(after)
		}
	}
	b.popBreakable()
	if !hasDefault {
		fork.Succs = append(fork.Succs, after)
	}
	b.cur = nil
	b.startAt(after)
}

// cond decomposes a boolean condition into blocks, giving && and ||
// their short-circuit edges, and ends with edges to t (condition true)
// and f (condition false).
func (b *cfgBuilder) cond(e ast.Expr, t, f *Block) {
	switch x := ast.Unparen(e).(type) {
	case *ast.BinaryExpr:
		switch x.Op {
		case token.LAND:
			mid := b.newBlock()
			b.cond(x.X, mid, f)
			b.startAt(mid)
			b.cond(x.Y, t, f)
			return
		case token.LOR:
			mid := b.newBlock()
			b.cond(x.X, t, mid)
			b.startAt(mid)
			b.cond(x.Y, t, f)
			return
		}
	case *ast.UnaryExpr:
		if x.Op == token.NOT {
			b.cond(x.X, f, t)
			return
		}
	}
	b.add(e)
	if b.cur != nil {
		b.cur.Succs = append(b.cur.Succs, t, f)
	}
	b.cur = nil
}

// jumpTo is jump tolerating a nil target (unknown label): the path
// simply ends, which is conservative.
func (b *cfgBuilder) jumpTo(target *Block) {
	if target == nil {
		b.cur = nil
		return
	}
	b.jump(target)
}

func (b *cfgBuilder) pushLoop(brk, cont *Block) {
	b.breakTo = append(b.breakTo, brk)
	b.continueTo = append(b.continueTo, cont)
	if b.pendingLabel != "" {
		b.labelBreak[b.pendingLabel] = brk
		b.labelCont[b.pendingLabel] = cont
		b.pendingLabel = ""
	}
}

func (b *cfgBuilder) popLoop() {
	b.breakTo = b.breakTo[:len(b.breakTo)-1]
	b.continueTo = b.continueTo[:len(b.continueTo)-1]
}

func (b *cfgBuilder) pushBreakable(brk *Block) {
	b.breakTo = append(b.breakTo, brk)
	// continue skips switch/select: keep the enclosing loop target by
	// duplicating it (or nil when there is none).
	var cont *Block
	if len(b.continueTo) > 0 {
		cont = b.continueTo[len(b.continueTo)-1]
	}
	b.continueTo = append(b.continueTo, cont)
	if b.pendingLabel != "" {
		b.labelBreak[b.pendingLabel] = brk
		b.pendingLabel = ""
	}
}

func (b *cfgBuilder) popBreakable() { b.popLoop() }
