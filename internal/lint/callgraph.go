package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// Module is the whole-program context shared by every Pass of one Run:
// the annotation index, a lightweight callgraph over the type-checked
// module, and the hot-path reachability closure hotalloc consumes. It
// is built once, serially, before the per-package passes fan out.
type Module struct {
	ModulePath string
	Anno       *Annotations

	// calls maps a function key (types.Func.FullName of its Origin) to
	// its sorted callee keys. Interface-method keys carry class-hierarchy
	// edges to every module implementation, so reachability traversals
	// follow dynamic dispatch conservatively.
	calls map[string][]string

	// HotReach maps every function reachable from a //sornlint:hotpath
	// root (stopping at //sornlint:coldpath) to the root that reaches it.
	HotReach map[string]string

	// issues holds annotation hygiene findings keyed by unit path,
	// reported by the stalesuppress rule.
	issues map[string][]annoIssue
}

// BuildModule indexes annotations, builds the callgraph, and computes
// the hot-path reachability closure over the given analysis units.
func BuildModule(pkgs []*Package) *Module {
	m := &Module{calls: make(map[string][]string)}
	if len(pkgs) == 0 {
		return m
	}
	m.ModulePath = pkgs[0].ModulePath
	m.Anno, m.issues = collectAnnotations(pkgs)

	edges := make(map[string]map[string]bool)
	addEdge := func(from, to string) {
		if from == "" || to == "" || from == to {
			return
		}
		set := edges[from]
		if set == nil {
			set = make(map[string]bool)
			edges[from] = set
		}
		set[to] = true
	}
	for _, pkg := range pkgs {
		m.staticEdges(pkg, addEdge)
	}
	m.chaEdges(pkgs, addEdge)
	for from, set := range edges {
		callees := make([]string, 0, len(set))
		//sornlint:ignore maporder -- callees are sorted immediately below
		for to := range set {
			callees = append(callees, to)
		}
		sort.Strings(callees)
		m.calls[from] = callees
	}

	m.HotReach = m.reach(annoHotpath, annoColdpath)
	return m
}

// moduleFunc reports whether fn is declared inside the module.
func (m *Module) moduleFunc(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return false
	}
	return pkg.Path() == m.ModulePath || strings.HasPrefix(pkg.Path(), m.ModulePath+"/")
}

// funcKey canonicalizes a function object: generic methods collapse to
// their origin so call sites on instantiations and the declaration
// agree on one key.
func funcKey(fn *types.Func) string { return fn.Origin().FullName() }

// staticEdges adds one edge per referenced module function inside every
// declared body. References, not just calls: a method value handed to a
// dispatcher runs just as much code as a direct call, so reachability
// treats them alike.
func (m *Module) staticEdges(pkg *Package, addEdge func(from, to string)) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			caller, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			from := funcKey(caller)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				if fn, ok := pkg.Info.Uses[id].(*types.Func); ok && m.moduleFunc(fn) {
					addEdge(from, funcKey(fn))
				}
				return true
			})
		}
	}
}

// chaEdges adds class-hierarchy edges: for every module interface a
// unit can see and every named type the unit declares, an edge from
// each interface method to the type's implementing method. Interfaces
// are matched per unit because a unit's own types are distinct objects
// from the import-side copies; the string keys are what unify them.
func (m *Module) chaEdges(pkgs []*Package, addEdge func(from, to string)) {
	for _, pkg := range pkgs {
		ifaces := m.visibleInterfaces(pkg.Types)
		impls := namedNonInterfaces(pkg.Types)
		for _, T := range impls {
			pT := types.NewPointer(T)
			for _, iface := range ifaces {
				it, ok := iface.Underlying().(*types.Interface)
				if !ok || it.Empty() {
					continue
				}
				if !types.Implements(T, it) && !types.Implements(pT, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					im := it.Method(i)
					obj, _, _ := types.LookupFieldOrMethod(pT, true, T.Obj().Pkg(), im.Name())
					if fn, ok := obj.(*types.Func); ok {
						addEdge(funcKey(im), funcKey(fn))
					}
				}
			}
		}
	}
}

// visibleInterfaces collects the module interfaces a unit can dispatch
// through: its own scope plus the scopes of its transitive module
// imports.
func (m *Module) visibleInterfaces(unit *types.Package) []*types.Named {
	var out []*types.Named
	seen := make(map[*types.Package]bool)
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if p == nil || seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if _, ok := named.Underlying().(*types.Interface); ok {
				out = append(out, named)
			}
		}
		for _, imp := range p.Imports() {
			if imp.Path() == m.ModulePath || strings.HasPrefix(imp.Path(), m.ModulePath+"/") {
				visit(imp)
			}
		}
	}
	visit(unit)
	return out
}

// namedNonInterfaces collects the unit's own named concrete types.
func namedNonInterfaces(unit *types.Package) []*types.Named {
	var out []*types.Named
	scope := unit.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		if _, ok := named.Underlying().(*types.Interface); !ok {
			out = append(out, named)
		}
	}
	return out
}

// reach computes the closure of functions reachable from every root
// annotated rootBit, without expanding (or including) nodes annotated
// stopBit. The result maps each reached key to the display name of the
// first root (in sorted root order) that reaches it.
func (m *Module) reach(rootBit, stopBit int) map[string]string {
	var roots []string
	//sornlint:ignore maporder -- roots are sorted immediately below
	for key, bits := range m.Anno.funcs {
		if bits&rootBit != 0 {
			roots = append(roots, key)
		}
	}
	sort.Strings(roots)

	reached := make(map[string]string)
	for _, root := range roots {
		if m.Anno.funcs[root]&stopBit != 0 {
			continue
		}
		display := shortFuncName(root)
		queue := []string{root}
		for len(queue) > 0 {
			key := queue[0]
			queue = queue[1:]
			if _, ok := reached[key]; ok {
				continue
			}
			reached[key] = display
			for _, callee := range m.calls[key] {
				if m.Anno.funcs[callee]&stopBit != 0 {
					continue
				}
				if _, ok := reached[callee]; !ok {
					queue = append(queue, callee)
				}
			}
		}
	}
	return reached
}

// shortFuncName strips the package path from a function key for
// messages: "(*repro/internal/netsim.Sim).landPhase" -> "(*Sim).landPhase",
// "repro/internal/netsim.New" -> "New".
func shortFuncName(key string) string {
	i := strings.LastIndex(key, "/")
	if i < 0 {
		return key
	}
	prefix := ""
	for _, p := range []string{"(*", "("} {
		if strings.HasPrefix(key, p) {
			prefix = p
			break
		}
	}
	rest := key[i+1:]
	if j := strings.Index(rest, "."); j >= 0 {
		rest = rest[j+1:]
	}
	return prefix + rest
}
