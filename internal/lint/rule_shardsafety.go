package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ShardSafety enforces the sharded simulator's write discipline: inside
// every function reachable from a //sornlint:shardphase body, writes to
// shared state — fields of the receiver, or package-level variables —
// are violations unless the target is annotated //sornlint:staged or the
// function is part of the //sornlint:drain merge path. There is no
// serial exemption: a write that only runs on some branch is still a
// write from shard-phase code.
//
// Writes through local variables and parameters are trusted: a worker
// that aliases shared state into a local (st := &s.stats) evades the
// rule. That hole is accepted — the rule front-runs the runtime
// determinism tests, it does not replace them. netsim's shard.st is
// such an alias by design: shard 0's points at the Sim's Stats, which
// no other shard writes during a phase.
const shardSafetyName = "shardsafety"

var ShardSafety = &Analyzer{
	Name: shardSafetyName,
	Doc:  "forbid writes to non-staged shared state in shard-phase code",
	Run:  runShardSafety,
}

func runShardSafety(p *Pass) {
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
			root, reached := p.Mod.ShardReach[key]
			if !reached || p.Mod.Anno.funcIs(key, annoDrain) {
				continue
			}
			w := &shardWalker{p: p, root: root}
			if fd.Recv != nil && len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 {
				w.recv = p.Info.Defs[fd.Recv.List[0].Names[0]]
			}
			// Every assignment in the body, closures included.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch st := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range st.Lhs {
						w.checkWrite(lhs)
					}
				case *ast.IncDecStmt:
					w.checkWrite(st.X)
				case *ast.SendStmt:
					w.checkWrite(st.Chan)
				case *ast.RangeStmt:
					if st.Tok == token.ASSIGN {
						if st.Key != nil {
							w.checkWrite(st.Key)
						}
						if st.Value != nil {
							w.checkWrite(st.Value)
						}
					}
				}
				return true
			})
		}
	}
}

// shardWalker checks the writes of one shard-phase function.
type shardWalker struct {
	p    *Pass
	root string
	recv types.Object
}

// checkWrite flags an assignment target rooted at the receiver (into a
// non-staged field) or at a non-staged package-level variable.
func (w *shardWalker) checkWrite(lhs ast.Expr) {
	root, firstSel := writeRoot(lhs)
	if root == nil {
		return
	}
	obj := w.p.Info.Uses[root]
	if obj == nil {
		obj = w.p.Info.Defs[root]
	}
	if obj == nil {
		return
	}
	switch {
	case w.recv != nil && obj == w.recv:
		if firstSel == nil {
			return // rebinding the receiver variable itself is local
		}
		field := firstSel.Sel.Name
		if w.p.Mod.Anno.fieldIs(w.recv.Type(), field, annoStaged) {
			return
		}
		w.p.Reportf(lhs.Pos(), shardSafetyName,
			"shard-phase write to %s.%s (reachable from %s); stage it per shard (//sornlint:staged) or confine it to the //sornlint:drain path",
			root.Name, field, w.root)
	case isPackageLevel(obj, w.p.Pkg):
		v, ok := obj.(*types.Var)
		if !ok || w.p.Mod.Anno.varStaged(v) {
			return
		}
		w.p.Reportf(lhs.Pos(), shardSafetyName,
			"shard-phase write to package-level %s (reachable from %s); shared globals break sharded determinism",
			root.Name, w.root)
	}
}

// isPackageLevel reports whether obj is declared at pkg's top level.
func isPackageLevel(obj types.Object, pkg *types.Package) bool {
	return pkg != nil && obj.Parent() == pkg.Scope()
}

// writeRoot peels an assignment target down to its root identifier,
// remembering the selector closest to the root (the first field of the
// access path): s.stats.DroppedCells -> (s, .stats).
func writeRoot(lhs ast.Expr) (*ast.Ident, *ast.SelectorExpr) {
	var firstSel *ast.SelectorExpr
	e := lhs
	for {
		switch t := e.(type) {
		case *ast.ParenExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		case *ast.SelectorExpr:
			firstSel = t
			e = t.X
		case *ast.Ident:
			return t, firstSel
		default:
			return nil, nil
		}
	}
}
