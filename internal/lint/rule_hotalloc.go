package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotAlloc keeps annotated hot paths allocation-free: every function
// reachable from a //sornlint:hotpath root (stopping at deliberate
// //sornlint:coldpath slow paths) is scanned for heap-allocating
// constructs — escaping composite literals (&T{...}), map literals and
// map/chan make, new(), map writes, closures, fmt calls, interface
// conversions of concrete non-pointer values, and append to a local
// slice declared without capacity evidence.
//
// Appends to fields, parameters, and slices made with an explicit
// capacity are allowed: amortized growth of a reused buffer is the
// repository's standard hot-path idiom (Route buffers, per-shard
// staging lists), and the zero-alloc RouteInto benchmark test keeps the
// rule honest against what the runtime actually does.
const hotAllocName = "hotalloc"

var HotAlloc = &Analyzer{
	Name: hotAllocName,
	Doc:  "forbid heap-allocating constructs in //sornlint:hotpath code",
	Run:  runHotAlloc,
}

func runHotAlloc(p *Pass) {
	if p.Mod == nil {
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
			root, reached := p.Mod.HotReach[key]
			if !reached {
				continue
			}
			checkHotFunc(p, fd, root)
		}
	}
}

// checkHotFunc scans one hot function body for allocation sites.
func checkHotFunc(p *Pass, fd *ast.FuncDecl, root string) {
	h := &hotChecker{p: p, root: root, trusted: make(map[types.Object]bool)}
	h.collectProvenance(fd)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			h.reportf(x.Pos(), "function literal allocates a closure")
			return false
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if _, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
					h.reportf(x.Pos(), "escaping composite literal (&T{...}) allocates")
				}
			}
		case *ast.CompositeLit:
			if t := p.Info.TypeOf(x); t != nil {
				if _, ok := t.Underlying().(*types.Map); ok {
					h.reportf(x.Pos(), "map literal allocates")
				}
			}
		case *ast.CallExpr:
			h.checkCall(x)
		case *ast.AssignStmt:
			h.checkAssign(x)
		case *ast.IncDecStmt:
			h.checkMapWrite(x.X)
		case *ast.ValueSpec:
			h.checkValueSpec(x)
		}
		return true
	})
}

type hotChecker struct {
	p    *Pass
	root string
	// trusted holds receiver, parameters, and locals whose slice
	// capacity provenance is acceptable for append.
	trusted map[types.Object]bool
	// localInit maps a := / var-declared local to its initializer.
	localInit map[types.Object]ast.Expr
}

func (h *hotChecker) reportf(pos token.Pos, format string, args ...interface{}) {
	h.p.Reportf(pos, hotAllocName, format+" (hot path via %s)", append(args, h.root)...)
}

// collectProvenance records parameter/receiver objects and local
// initializers so append targets can be judged.
func (h *hotChecker) collectProvenance(fd *ast.FuncDecl) {
	h.localInit = make(map[types.Object]ast.Expr)
	addFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, nm := range field.Names {
				if obj := h.p.Info.Defs[nm]; obj != nil {
					h.trusted[obj] = true
				}
			}
		}
	}
	addFields(fd.Recv)
	addFields(fd.Type.Params)
	addFields(fd.Type.Results)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			if x.Tok != token.DEFINE {
				return true
			}
			for i, lhs := range x.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				obj := h.p.Info.Defs[id]
				if obj == nil {
					continue
				}
				if len(x.Lhs) == len(x.Rhs) {
					h.localInit[obj] = x.Rhs[i]
				} else {
					h.trusted[obj] = true // multi-value: unknown provenance
				}
			}
		case *ast.ValueSpec:
			for i, nm := range x.Names {
				obj := h.p.Info.Defs[nm]
				if obj == nil {
					continue
				}
				if i < len(x.Values) {
					h.localInit[obj] = x.Values[i]
				}
			}
		case *ast.RangeStmt:
			if x.Tok == token.DEFINE {
				for _, e := range []ast.Expr{x.Key, x.Value} {
					if id, ok := e.(*ast.Ident); ok && id != nil {
						if obj := h.p.Info.Defs[id]; obj != nil {
							h.trusted[obj] = true
						}
					}
				}
			}
		}
		return true
	})
}

// checkCall flags allocating builtins, fmt calls, and interface-boxing
// arguments.
func (h *hotChecker) checkCall(call *ast.CallExpr) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := h.p.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				if t := h.p.Info.TypeOf(call); t != nil {
					switch t.Underlying().(type) {
					case *types.Map:
						h.reportf(call.Pos(), "make(map) allocates; hoist the map out of the hot path")
					case *types.Chan:
						h.reportf(call.Pos(), "make(chan) allocates; hoist the channel out of the hot path")
					}
				}
			case "new":
				h.reportf(call.Pos(), "new(T) allocates; reuse a caller-owned value")
			case "append":
				if len(call.Args) > 0 && !h.appendTargetOK(call.Args[0]) {
					h.reportf(call.Pos(), "append to %s, which has no preallocated-capacity evidence", exprString(h.p, call.Args[0]))
				}
			}
			return
		}
	}
	if tv, ok := h.p.Info.Types[call.Fun]; ok && tv.IsType() {
		// Conversion T(x): boxing only if T is an interface.
		if t := h.p.Info.TypeOf(call); t != nil && len(call.Args) == 1 && h.boxes(t, call.Args[0]) {
			h.reportf(call.Pos(), "conversion of %s to interface %s allocates", exprString(h.p, call.Args[0]), t)
		}
		return
	}
	if name := calleeFullName(h.p, call); strings.HasPrefix(name, "fmt.") {
		h.reportf(call.Pos(), "call to %s formats through interfaces and allocates", name)
		return
	}
	sig, ok := h.p.Info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		pt := paramTypeAt(sig, i, call.Ellipsis != token.NoPos)
		if pt != nil && h.boxes(pt, arg) {
			h.reportf(arg.Pos(), "passing %s as interface %s allocates", exprString(h.p, arg), pt)
		}
	}
}

// checkAssign flags map writes and interface-boxing assignments.
func (h *hotChecker) checkAssign(as *ast.AssignStmt) {
	for _, lhs := range as.Lhs {
		h.checkMapWrite(lhs)
	}
	if as.Tok != token.ASSIGN || len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		lt := h.p.Info.TypeOf(lhs)
		if lt != nil && h.boxes(lt, as.Rhs[i]) {
			h.reportf(as.Rhs[i].Pos(), "assigning %s to interface %s allocates", exprString(h.p, as.Rhs[i]), lt)
		}
	}
}

// checkValueSpec flags `var x Iface = concrete` boxing.
func (h *hotChecker) checkValueSpec(vs *ast.ValueSpec) {
	for i, nm := range vs.Names {
		if i >= len(vs.Values) {
			break
		}
		obj := h.p.Info.Defs[nm]
		if obj != nil && h.boxes(obj.Type(), vs.Values[i]) {
			h.reportf(vs.Values[i].Pos(), "assigning %s to interface %s allocates", exprString(h.p, vs.Values[i]), obj.Type())
		}
	}
}

// checkMapWrite flags index assignments into maps.
func (h *hotChecker) checkMapWrite(lhs ast.Expr) {
	ix, ok := ast.Unparen(lhs).(*ast.IndexExpr)
	if !ok {
		return
	}
	if t := h.p.Info.TypeOf(ix.X); t != nil {
		if _, ok := t.Underlying().(*types.Map); ok {
			h.reportf(lhs.Pos(), "map write to %s may allocate and rehash", exprString(h.p, ix.X))
		}
	}
}

// boxes reports whether assigning arg (a concrete, non-pointer-shaped
// value) into the interface type `to` forces a heap allocation.
func (h *hotChecker) boxes(to types.Type, arg ast.Expr) bool {
	if to == nil || !types.IsInterface(to) {
		return false
	}
	tv, ok := h.p.Info.Types[arg]
	if !ok || tv.Type == nil {
		return false
	}
	if tv.IsNil() {
		return false
	}
	at := tv.Type
	if types.IsInterface(at) {
		return false
	}
	switch at.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false // pointer-shaped: fits an interface word
	case *types.Basic:
		if b := at.Underlying().(*types.Basic); b.Info()&types.IsUntyped != 0 && tv.Value == nil {
			return false
		}
	}
	return true
}

// paramTypeAt returns the type of parameter i of sig, flattening the
// variadic tail (nil for an explicit ... call's slice argument).
func paramTypeAt(sig *types.Signature, i int, ellipsis bool) types.Type {
	params := sig.Params()
	if params.Len() == 0 {
		return nil
	}
	last := params.Len() - 1
	if sig.Variadic() && i >= last {
		if ellipsis {
			return nil // the slice is passed through, no boxing per element
		}
		if s, ok := params.At(last).Type().(*types.Slice); ok {
			return s.Elem()
		}
		return nil
	}
	if i > last {
		return nil
	}
	return params.At(i).Type()
}

// appendTargetOK judges the first argument of append: fields, indexed
// elements, parameters, results of calls, and locals initialized with
// capacity evidence are fine; locals declared empty are not.
func (h *hotChecker) appendTargetOK(arg ast.Expr) bool {
	e := ast.Unparen(arg)
	if se, ok := e.(*ast.SliceExpr); ok {
		e = ast.Unparen(se.X) // buf[:0] reuse idiom
	}
	switch t := e.(type) {
	case *ast.SelectorExpr, *ast.IndexExpr:
		return true // field or element of a caller-owned structure
	case *ast.CallExpr:
		return true
	case *ast.Ident:
		obj := h.p.Info.Uses[t]
		if obj == nil {
			obj = h.p.Info.Defs[t]
		}
		if obj == nil || h.trusted[obj] {
			return true
		}
		init, declared := h.localInit[obj]
		if !declared || init == nil {
			return false // var x []T, or unseen: no capacity evidence
		}
		return h.initHasCapacity(init)
	}
	return true
}

// initHasCapacity judges a local slice initializer: make with any
// explicit size, or a value derived from elsewhere (call, field,
// slicing), counts as capacity evidence; empty or literal composites do
// not.
func (h *hotChecker) initHasCapacity(init ast.Expr) bool {
	switch x := ast.Unparen(init).(type) {
	case *ast.CallExpr:
		if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
			if b, ok := h.p.Info.Uses[id].(*types.Builtin); ok && b.Name() == "make" {
				return len(x.Args) >= 2 // make([]T, n) / make([]T, n, c)
			}
		}
		return true // some constructor: trust its sizing
	case *ast.CompositeLit:
		return false // []T{...}: cap == len, the append grows it
	case *ast.Ident:
		if x.Name == "nil" {
			return false
		}
		return true // alias of something else: trust it
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.SliceExpr:
		return true
	}
	return true
}
