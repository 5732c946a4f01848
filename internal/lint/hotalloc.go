package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotAlloc statically backstops the AllocsPerRun==0 property tests: in
// every function whose doc comment carries the //ffc:hotpath marker it
// flags constructs that heap-allocate, with the specific line and
// reason, so an allocation regression reads as a diagnostic instead of
// a benchmark delta. Flagged: make/new, &T{...} literals, fmt.* calls,
// closures that capture variables, string concatenation, interface
// conversions of non-pointer values, and append to a slice that is not
// rooted in the receiver or a caller-provided parameter.
//
// One carve-out keeps the rule honest about what "hot" means: fmt.*
// calls and interface conversions directly inside a return statement
// are exempt, because error construction on the cold exit path (return
// fmt.Errorf(...)) does not run in steady state.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc: "flag heap-allocating constructs inside //ffc:hotpath functions " +
		"(make/new, closures, fmt.*, string concat, interface conversions, foreign appends)",
	Run: runHotAlloc,
}

// HotPathMarker is the doc-comment directive that opts a function into
// hotalloc checking. It must appear as its own line in the function's
// doc comment block, e.g.:
//
//	// Observe computes ... zero allocations in steady state.
//	//
//	//ffc:hotpath
//	func (w *Workspace) Observe(r []float64) (*Observation, error) {
const HotPathMarker = "//ffc:hotpath"

func runHotAlloc(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !funcDirective(fd, HotPathMarker) {
				continue
			}
			checkHotFunc(pass, fd)
		}
	}
	return nil
}

// hotChecker walks one annotated function keeping the ancestor stack,
// so the return-statement carve-out and closure boundaries are known
// at every node.
type hotChecker struct {
	pass  *Pass
	fd    *ast.FuncDecl
	stack []ast.Node
}

func checkHotFunc(pass *Pass, fd *ast.FuncDecl) {
	c := &hotChecker{pass: pass, fd: fd}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			c.stack = c.stack[:len(c.stack)-1]
			return true
		}
		c.stack = append(c.stack, n)
		c.check(n)
		return true
	})
}

// inReturn reports whether the current node lies inside a return
// statement (the cold-exit carve-out for error construction).
func (c *hotChecker) inReturn() bool {
	for _, n := range c.stack {
		if _, ok := n.(*ast.ReturnStmt); ok {
			return true
		}
	}
	return false
}

// inClosure reports whether the current node lies inside a nested
// function literal (the literal itself is diagnosed; its body is the
// literal's problem, not the hot path's).
func (c *hotChecker) inClosure() bool {
	for _, n := range c.stack[:len(c.stack)-1] {
		if _, ok := n.(*ast.FuncLit); ok {
			return true
		}
	}
	return false
}

func (c *hotChecker) check(n ast.Node) {
	if c.inClosure() {
		return
	}
	info := c.pass.TypesInfo
	switch x := n.(type) {
	case *ast.CallExpr:
		c.checkCall(x)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			if _, isLit := ast.Unparen(x.X).(*ast.CompositeLit); isLit {
				c.pass.Reportf(x.Pos(), "hot path allocates: &composite literal escapes to the heap")
			}
		}
	case *ast.FuncLit:
		if capt := capturedVar(info, x); capt != "" {
			c.pass.Reportf(x.Pos(), "hot path allocates: closure captures %s", capt)
		}
	case *ast.BinaryExpr:
		if x.Op == token.ADD && isString(info.Types[x.X].Type) && info.Types[x].Value == nil {
			c.pass.Reportf(x.Pos(), "hot path allocates: string concatenation")
		}
	case *ast.AssignStmt:
		if x.Tok == token.ADD_ASSIGN && len(x.Lhs) == 1 && isString(info.Types[x.Lhs[0]].Type) {
			c.pass.Reportf(x.Pos(), "hot path allocates: string concatenation")
		}
		if !c.inReturn() {
			c.checkInterfaceAssign(x)
		}
	case *ast.ValueSpec:
		if !c.inReturn() && x.Type != nil && len(x.Values) > 0 {
			if t, ok := info.Types[x.Type]; ok && isInterface(t.Type) {
				for _, v := range x.Values {
					c.reportIfaceConv(v, t.Type)
				}
			}
		}
	}
}

func (c *hotChecker) checkCall(call *ast.CallExpr) {
	info := c.pass.TypesInfo
	switch {
	case isBuiltin(info, call, "make"):
		c.pass.Reportf(call.Pos(), "hot path allocates: make")
		return
	case isBuiltin(info, call, "new"):
		c.pass.Reportf(call.Pos(), "hot path allocates: new")
		return
	case isBuiltin(info, call, "append"):
		c.checkAppend(call)
		return
	}
	// A conversion expression T(x) with interface T.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if isInterface(tv.Type) && len(call.Args) == 1 && !c.inReturn() {
			c.reportIfaceConv(call.Args[0], tv.Type)
		}
		return
	}
	fn := calleeFunc(info, call)
	if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		if !c.inReturn() {
			c.pass.Reportf(call.Pos(), "hot path allocates: fmt.%s (only allowed directly inside a cold-path return)", fn.Name())
		}
		return
	}
	if !c.inReturn() {
		c.checkCallArgs(call)
	}
}

// checkCallArgs flags arguments implicitly converted to interface
// parameter types when the argument's concrete type does not fit in
// the interface word (anything but a pointer-shaped value allocates).
func (c *hotChecker) checkCallArgs(call *ast.CallExpr) {
	info := c.pass.TypesInfo
	sigTV, ok := info.Types[call.Fun]
	if !ok {
		return
	}
	sig, ok := sigTV.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis != token.NoPos {
				continue // []T passed through, no per-element conversion
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if isInterface(pt) {
			c.reportIfaceConv(arg, pt)
		}
	}
}

// checkInterfaceAssign flags assignments that box a concrete
// non-pointer value into an interface-typed location.
func (c *hotChecker) checkInterfaceAssign(assign *ast.AssignStmt) {
	info := c.pass.TypesInfo
	if len(assign.Lhs) != len(assign.Rhs) {
		return
	}
	for i, lhs := range assign.Lhs {
		lt, ok := info.Types[lhs]
		if !ok && assign.Tok == token.DEFINE {
			continue // type inferred from RHS: no conversion
		}
		if ok && isInterface(lt.Type) {
			c.reportIfaceConv(assign.Rhs[i], lt.Type)
		}
	}
}

// reportIfaceConv reports arg if converting it to the interface type
// dst would heap-allocate: its static type is concrete, not
// pointer-shaped, and the value is not a compile-time constant or nil.
func (c *hotChecker) reportIfaceConv(arg ast.Expr, dst types.Type) {
	tv, ok := c.pass.TypesInfo.Types[arg]
	if !ok || tv.Value != nil || tv.IsNil() {
		return
	}
	at := tv.Type
	if at == nil || isInterface(at) {
		return
	}
	switch at.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return // pointer-shaped: fits the interface word
	}
	c.pass.Reportf(arg.Pos(), "hot path allocates: %s value boxed into interface %s", at, dst)
}

// checkAppend allows appends only into storage the caller or receiver
// owns: the slice expression must be rooted in the method receiver or
// a parameter, directly or through a local whose every assignment is
// so rooted. Anything else grows a foreign slice and allocates once
// capacity runs out.
func (c *hotChecker) checkAppend(call *ast.CallExpr) {
	if len(call.Args) == 0 {
		return
	}
	if c.ownedByCaller(call.Args[0], 0) {
		return
	}
	c.pass.Reportf(call.Pos(), "hot path allocates: append to a slice not rooted in the receiver or a parameter")
}

// ownedByCaller reports whether e's root identifier is the receiver, a
// parameter, or a local transitively initialized from one.
func (c *hotChecker) ownedByCaller(e ast.Expr, depth int) bool {
	if depth > 4 {
		return false
	}
	id := rootIdent(e)
	if id == nil {
		return false
	}
	obj := c.pass.TypesInfo.Uses[id]
	if obj == nil {
		obj = c.pass.TypesInfo.Defs[id]
	}
	if obj == nil {
		return false
	}
	if c.isRecvOrParam(obj) {
		return true
	}
	// A local: every assignment to it must be caller-rooted.
	srcs := assignmentsTo(c.pass.TypesInfo, c.fd.Body, obj)
	if len(srcs) == 0 {
		return false
	}
	for _, src := range srcs {
		if !c.ownedByCaller(src, depth+1) {
			return false
		}
	}
	return true
}

// isRecvOrParam reports whether obj is the annotated function's
// receiver or one of its parameters.
func (c *hotChecker) isRecvOrParam(obj types.Object) bool {
	info := c.pass.TypesInfo
	check := func(fl *ast.FieldList) bool {
		if fl == nil {
			return false
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				if info.Defs[name] == obj {
					return true
				}
			}
		}
		return false
	}
	return check(c.fd.Recv) || check(c.fd.Type.Params)
}

// assignmentsTo collects the source expressions of every assignment or
// definition of obj within body (append's self-assign form
// x = append(x, ...) is skipped: it cannot introduce new storage).
func assignmentsTo(info *types.Info, body *ast.BlockStmt, obj types.Object) []ast.Expr {
	var srcs []ast.Expr
	ast.Inspect(body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Lhs) != len(assign.Rhs) {
			return true
		}
		for i, lhs := range assign.Lhs {
			lid, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok {
				continue
			}
			if info.Defs[lid] != obj && info.Uses[lid] != obj {
				continue
			}
			rhs := ast.Unparen(assign.Rhs[i])
			if call, ok := rhs.(*ast.CallExpr); ok && isBuiltin(info, call, "append") {
				continue
			}
			srcs = append(srcs, rhs)
		}
		return true
	})
	return srcs
}

// capturedVar returns the name of a variable the closure captures from
// its enclosing function, or "" when it captures nothing (package-
// level objects and the literal's own locals are free).
func capturedVar(info *types.Info, lit *ast.FuncLit) string {
	name := ""
	ast.Inspect(lit, func(n ast.Node) bool {
		if name != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Pkg() == nil || v.Parent() == v.Pkg().Scope() {
			return true // package-level
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			name = v.Name()
		}
		return true
	})
	return name
}

// isString reports whether t's underlying type is string.
func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isInterface reports whether t is an interface type (named or not).
func isInterface(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Interface)
	return ok
}
