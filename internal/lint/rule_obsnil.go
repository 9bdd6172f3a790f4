package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ObsNil enforces the observer discipline in internal packages: every
// call on a *obs.Observer method must be dominated by evidence that the
// observer is non-nil — an enclosing `o != nil` branch, an early return
// on `o == nil`, a bool local assigned from such a test, a
// //sornlint:obsguard predicate or field, or an assignment from
// obs.New earlier in the block. Functions annotated //sornlint:obsguarded
// are exempt: their callers own the guarantee.
//
// The obs package itself is exempt — its methods are the nil-safe
// boundary the rule protects.
const obsNilName = "obsnil"

var ObsNil = &Analyzer{
	Name: obsNilName,
	Doc:  "require nil-check domination for *obs.Observer calls",
	Run:  runObsNil,
}

func runObsNil(p *Pass) {
	if p.Mod == nil || !p.InternalPkg() {
		return
	}
	obsPath := p.ModulePath + "/internal/obs"
	if p.PkgPath == obsPath || p.PkgPath == obsPath+"_test" {
		return
	}
	for _, f := range p.Files {
		if p.IsTestFile(f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			key := p.FuncKey(fd)
			if p.Mod.Anno.funcIs(key, annoObsguarded) {
				continue
			}
			w := &obsWalker{
				p:     p,
				facts: make(map[types.Object]bool),
			}
			w.block(fd.Body.List, false)
		}
	}
}

// obsWalker tracks guard domination statement by statement. guarded
// flows forward through a block: an early return on a negative guard,
// or an assignment from obs.New, guards everything after it; a positive
// guard condition guards its branch.
type obsWalker struct {
	p     *Pass
	facts map[types.Object]bool // bool locals that imply the observer is non-nil
}

// block walks a statement list, threading the guarded state.
func (w *obsWalker) block(list []ast.Stmt, guarded bool) {
	for _, s := range list {
		guarded = w.stmt(s, guarded)
	}
}

// stmt processes one statement under the current guard state and
// returns the guard state for the statements after it.
func (w *obsWalker) stmt(s ast.Stmt, guarded bool) bool {
	switch st := s.(type) {
	case *ast.AssignStmt:
		w.exprs(st.Rhs, guarded)
		for _, lhs := range st.Lhs {
			w.expr(lhs, guarded)
		}
		// g := o != nil (or an obsguard predicate) records a fact.
		if st.Tok == token.DEFINE && len(st.Lhs) == 1 && len(st.Rhs) == 1 {
			if id, ok := st.Lhs[0].(*ast.Ident); ok {
				if pos, _ := w.classify(st.Rhs[0]); pos {
					if obj := w.p.Info.Defs[id]; obj != nil {
						w.facts[obj] = true
					}
				}
			}
		}
		// x = obs.New(...): the observer is non-nil from here on.
		for _, rhs := range st.Rhs {
			if w.callsObsNew(rhs) {
				return true
			}
		}
		return guarded
	case *ast.IfStmt:
		if st.Init != nil {
			guarded = w.stmt(st.Init, guarded)
		}
		w.expr(st.Cond, guarded)
		pos, neg := w.classify(st.Cond)
		w.block(st.Body.List, guarded || pos)
		if st.Else != nil {
			w.stmt(st.Else, guarded || neg)
		}
		// if o == nil { return } dominates the rest of the block.
		if neg && st.Else == nil && terminates(st.Body) {
			return true
		}
		return guarded
	case *ast.BlockStmt:
		w.block(st.List, guarded)
	case *ast.ExprStmt:
		w.expr(st.X, guarded)
	case *ast.ReturnStmt:
		w.exprs(st.Results, guarded)
	case *ast.IncDecStmt:
		w.expr(st.X, guarded)
	case *ast.SendStmt:
		w.expr(st.Chan, guarded)
		w.expr(st.Value, guarded)
	case *ast.DeferStmt:
		w.expr(st.Call, guarded)
	case *ast.GoStmt:
		w.expr(st.Call, guarded)
	case *ast.ForStmt:
		if st.Init != nil {
			guarded = w.stmt(st.Init, guarded)
		}
		if st.Cond != nil {
			w.expr(st.Cond, guarded)
		}
		if st.Post != nil {
			w.stmt(st.Post, guarded)
		}
		w.block(st.Body.List, guarded)
	case *ast.RangeStmt:
		w.expr(st.X, guarded)
		w.block(st.Body.List, guarded)
	case *ast.SwitchStmt:
		if st.Init != nil {
			guarded = w.stmt(st.Init, guarded)
		}
		if st.Tag != nil {
			w.expr(st.Tag, guarded)
		}
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.exprs(cc.List, guarded)
				w.block(cc.Body, guarded)
			}
		}
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			guarded = w.stmt(st.Init, guarded)
		}
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.block(cc.Body, guarded)
			}
		}
	case *ast.SelectStmt:
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				if cc.Comm != nil {
					w.stmt(cc.Comm, guarded)
				}
				w.block(cc.Body, guarded)
			}
		}
	case *ast.LabeledStmt:
		return w.stmt(st.Stmt, guarded)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					w.exprs(vs.Values, guarded)
				}
			}
		}
	}
	return guarded
}

// exprs checks a list of expressions under one guard state.
func (w *obsWalker) exprs(es []ast.Expr, guarded bool) {
	for _, e := range es {
		w.expr(e, guarded)
	}
}

// expr scans one expression tree for Observer method calls. Function
// literals start a fresh unguarded context: a closure may run long
// after the guard that surrounded its creation.
func (w *obsWalker) expr(e ast.Expr, guarded bool) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			w.block(x.Body.List, false)
			return false
		case *ast.CallExpr:
			if method := w.observerMethod(x); method != "" && !guarded {
				w.p.Reportf(x.Pos(), obsNilName,
					"(*obs.Observer).%s call is not dominated by a nil check; guard it or annotate the function //sornlint:obsguarded",
					method)
			}
		}
		return true
	})
}

// observerMethod returns the method name if call is a method call on
// *obs.Observer, else "".
func (w *obsWalker) observerMethod(call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := w.p.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	if namedKey(sig.Recv().Type()) == w.p.ModulePath+"/internal/obs.Observer" {
		return fn.Name()
	}
	return ""
}

// callsObsNew reports whether the expression tree contains a call to
// obs.New (whose result is never nil).
func (w *obsWalker) callsObsNew(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if calleeFullName(w.p, call) == w.p.ModulePath+"/internal/obs.New" {
				found = true
				return false
			}
		}
		return !found
	})
	return found
}

// classify reports whether e being true (pos) or false (neg) proves
// the observer is non-nil.
func (w *obsWalker) classify(e ast.Expr) (pos, neg bool) {
	switch x := ast.Unparen(e).(type) {
	case *ast.BinaryExpr:
		switch x.Op {
		case token.EQL, token.NEQ:
			var operand ast.Expr
			if isNilIdent(w.p, x.Y) {
				operand = x.X
			} else if isNilIdent(w.p, x.X) {
				operand = x.Y
			} else {
				return false, false
			}
			if !w.isObserverExpr(operand) {
				return false, false
			}
			if x.Op == token.NEQ {
				return true, false // o != nil: true => non-nil
			}
			return false, true // o == nil: false => non-nil
		case token.LAND:
			xp, _ := w.classify(x.X)
			yp, _ := w.classify(x.Y)
			return xp || yp, false
		case token.LOR:
			_, xn := w.classify(x.X)
			_, yn := w.classify(x.Y)
			return false, xn || yn
		}
	case *ast.UnaryExpr:
		if x.Op == token.NOT {
			pos, neg = w.classify(x.X)
			return neg, pos
		}
	case *ast.Ident:
		if obj := w.p.Info.Uses[x]; obj != nil && w.facts[obj] {
			return true, false
		}
	case *ast.SelectorExpr:
		if w.isObsguardField(x) {
			return true, false
		}
	case *ast.CallExpr:
		if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok {
			if fn, ok := w.p.Info.Uses[sel.Sel].(*types.Func); ok && w.p.Mod.Anno.funcIs(funcKey(fn), annoObsguard) {
				return true, false
			}
		}
		if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
			if fn, ok := w.p.Info.Uses[id].(*types.Func); ok && w.p.Mod.Anno.funcIs(funcKey(fn), annoObsguard) {
				return true, false
			}
		}
	}
	return false, false
}

// isObserverExpr reports whether e has type *obs.Observer.
func (w *obsWalker) isObserverExpr(e ast.Expr) bool {
	t := w.p.Info.TypeOf(e)
	if t == nil {
		return false
	}
	if _, ok := t.(*types.Pointer); !ok {
		return false
	}
	return namedKey(t) == w.p.ModulePath+"/internal/obs.Observer"
}

// isObsguardField reports whether sel resolves to a struct field
// annotated //sornlint:obsguard.
func (w *obsWalker) isObsguardField(sel *ast.SelectorExpr) bool {
	s, ok := w.p.Info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return false
	}
	v, ok := s.Obj().(*types.Var)
	if !ok {
		return false
	}
	return w.p.Mod.Anno.fieldIs(s.Recv(), v.Name(), annoObsguard)
}

// terminates reports whether a block's last statement unconditionally
// leaves the enclosing flow (return, panic, or a branch statement).
func terminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(last.X).(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
				return id.Name == "panic"
			}
		}
	}
	return false
}

// isNilIdent reports whether e is the predeclared nil.
func isNilIdent(p *Pass, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := p.Info.Uses[id].(*types.Nil)
	return isNil
}
