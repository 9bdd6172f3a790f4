package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Annotation verbs. Beyond //sornlint:ignore (handled by the directive
// index in lint.go), source can declare invariants the whole-program
// rules consume:
//
//	//sornlint:hotpath     func or interface method: this and everything
//	                       it transitively calls must not heap-allocate
//	                       (rule hotalloc)
//	//sornlint:coldpath    func: deliberate slow path; hotalloc stops
//	                       its traversal here (e.g. a grow-and-copy
//	                       branch taken O(log n) times)
//	//sornlint:obsguard    func or bool struct field: evaluating true
//	                       implies the Observer is non-nil (rule obsnil
//	                       accepts it as a guard)
//	//sornlint:obsguarded  func: every caller guarantees observability
//	                       is enabled before calling (constructor/merge
//	                       contracts); obsnil skips its body
//
// Each verb sits alone on its comment line; everything after " -- " is a
// free-form justification. A verb on a declaration it cannot apply to,
// or a verb the framework does not know, is itself reported (rule
// stalesuppress), so annotations cannot silently rot.
const (
	annoHotpath = 1 << iota
	annoColdpath
	annoObsguard
	annoObsguarded
)

// annoVerbs maps verb spelling to its bit. Every verb applies to
// functions and interface methods; obsguard also applies to fields.
var annoVerbs = map[string]int{
	"hotpath":    annoHotpath,
	"coldpath":   annoColdpath,
	"obsguard":   annoObsguard,
	"obsguarded": annoObsguarded,
}

// Annotations indexes every annotation in the module. Functions are
// keyed by types.Func.FullName() — the one identity that survives the
// loader's separate type-checks of a package (as an analysis unit and as
// an import). Fields are keyed by "<pkgpath>.<Type>.<field>".
type Annotations struct {
	funcs  map[string]int
	fields map[string]int
}

// funcIs reports whether the function key carries the verb bit.
func (a *Annotations) funcIs(key string, bit int) bool { return a != nil && a.funcs[key]&bit != 0 }

// fieldIs reports whether field fieldName of the named type owner
// carries the verb bit.
func (a *Annotations) fieldIs(owner types.Type, fieldName string, bit int) bool {
	if a == nil {
		return false
	}
	key := namedKey(owner)
	if key == "" {
		return false
	}
	return a.fields[key+"."+fieldName]&bit != 0
}

// namedKey renders "<pkgpath>.<TypeName>" for a (possibly pointered)
// named type, or "".
func namedKey(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := n.Obj()
	if obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// annoIssue is one hygiene problem with a //sornlint: comment,
// reported by the stalesuppress rule in the package that owns the file.
type annoIssue struct {
	pos token.Pos
	msg string
}

// parseAnnoComment splits "//sornlint:<verb> [-- reason]" into its verb.
func parseAnnoComment(text string) (verb string, ok bool) {
	const prefix = "//sornlint:"
	rest, found := strings.CutPrefix(text, prefix)
	if !found {
		return "", false
	}
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		rest = rest[:i]
	}
	return rest, rest != ""
}

// annoCollector accumulates the module's annotations and hygiene issues
// while walking one package unit at a time.
type annoCollector struct {
	anno   *Annotations
	issues map[string][]annoIssue

	// per-unit state
	pkg      *Package
	consumed map[*ast.Comment]bool
}

// collectAnnotations builds the annotation index over every unit and
// returns it with the hygiene issues keyed by unit path.
func collectAnnotations(pkgs []*Package) (*Annotations, map[string][]annoIssue) {
	c := &annoCollector{
		anno: &Annotations{
			funcs:  make(map[string]int),
			fields: make(map[string]int),
		},
		issues: make(map[string][]annoIssue),
	}
	for _, pkg := range pkgs {
		c.pkg = pkg
		for _, f := range pkg.Files {
			c.collectFile(f)
		}
	}
	return c.anno, c.issues
}

func (c *annoCollector) issuef(pos token.Pos, format string, args ...interface{}) {
	c.issues[c.pkg.Path] = append(c.issues[c.pkg.Path], annoIssue{pos: pos, msg: fmt.Sprintf(format, args...)})
}

// collectFile indexes one file's annotations: declaration walks consume
// the verbs they accept; anything left over (or unknown) is an issue.
func (c *annoCollector) collectFile(f *ast.File) {
	c.consumed = make(map[*ast.Comment]bool)
	var annos []*ast.Comment
	for _, cg := range f.Comments {
		for _, cm := range cg.List {
			verb, ok := parseAnnoComment(cm.Text)
			if !ok {
				continue
			}
			if verb == "ignore" {
				if rules, ok := parseIgnoreComment(cm.Text); !ok || len(rules) == 0 {
					c.issuef(cm.Pos(), "//sornlint:ignore directive names no rules; write //sornlint:ignore <rule>[,<rule>] -- reason")
				}
				continue // indexed by the directive parser
			}
			if _, known := annoVerbs[verb]; !known {
				c.issuef(cm.Pos(), "unknown //sornlint:%s directive; known verbs: ignore, hotpath, coldpath, obsguard, obsguarded", verb)
				continue
			}
			annos = append(annos, cm)
		}
	}
	if len(annos) == 0 {
		return
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			c.applyFuncVerbs(d.Doc, c.funcDeclKey(d))
		case *ast.GenDecl:
			c.collectGenDecl(d)
		}
	}
	for _, cm := range annos {
		if !c.consumed[cm] {
			verb, _ := parseAnnoComment(cm.Text)
			c.issuef(cm.Pos(), "misplaced //sornlint:%s annotation: it is not attached to a declaration it applies to", verb)
		}
	}
}

// funcDeclKey resolves a function declaration to its canonical key.
func (c *annoCollector) funcDeclKey(d *ast.FuncDecl) string {
	if fn, ok := c.pkg.Info.Defs[d.Name].(*types.Func); ok {
		return fn.Origin().FullName()
	}
	return ""
}

// verbsIn yields the (comment, bit) pairs of a comment group and marks
// them consumed.
func (c *annoCollector) verbsIn(doc *ast.CommentGroup) []struct {
	cm  *ast.Comment
	bit int
} {
	if doc == nil {
		return nil
	}
	var out []struct {
		cm  *ast.Comment
		bit int
	}
	for _, cm := range doc.List {
		verb, ok := parseAnnoComment(cm.Text)
		if !ok || verb == "ignore" {
			continue
		}
		bit, known := annoVerbs[verb]
		if !known {
			continue
		}
		c.consumed[cm] = true
		out = append(out, struct {
			cm  *ast.Comment
			bit int
		}{cm, bit})
	}
	return out
}

// applyFuncVerbs attaches function verbs from doc to the function key.
func (c *annoCollector) applyFuncVerbs(doc *ast.CommentGroup, key string) {
	for _, v := range c.verbsIn(doc) {
		if key != "" {
			c.anno.funcs[key] |= v.bit
		}
	}
}

// collectGenDecl handles type and var declarations: obsguard fields and
// interface-method function verbs. A verb on a type or a package var is
// an issue.
func (c *annoCollector) collectGenDecl(d *ast.GenDecl) {
	for _, spec := range d.Specs {
		var doc *ast.CommentGroup
		switch s := spec.(type) {
		case *ast.TypeSpec:
			doc = s.Doc
			if doc == nil && len(d.Specs) == 1 {
				doc = d.Doc
			}
			c.applyTypeVerbs(doc, s)
		case *ast.ValueSpec:
			doc = s.Doc
			if doc == nil && len(d.Specs) == 1 {
				doc = d.Doc
			}
			c.applyVarVerbs(doc)
			c.applyVarVerbs(s.Comment)
		}
	}
}

// applyTypeVerbs walks struct fields and interface methods for their
// verbs; no verb applies to the type declaration itself.
func (c *annoCollector) applyTypeVerbs(doc *ast.CommentGroup, s *ast.TypeSpec) {
	obj := c.pkg.Info.Defs[s.Name]
	key := ""
	if obj != nil && obj.Pkg() != nil {
		key = obj.Pkg().Path() + "." + obj.Name()
	}
	for _, v := range c.verbsIn(doc) {
		c.issuef(v.cm.Pos(), "%s does not apply to a type declaration", v.cm.Text)
	}
	switch t := s.Type.(type) {
	case *ast.StructType:
		for _, field := range t.Fields.List {
			for _, v := range append(c.verbsIn(field.Doc), c.verbsIn(field.Comment)...) {
				if v.bit != annoObsguard {
					c.issuef(v.cm.Pos(), "%s does not apply to a struct field; fields take obsguard", v.cm.Text)
					continue
				}
				for _, name := range field.Names {
					if key != "" {
						c.anno.fields[key+"."+name.Name] |= v.bit
					}
				}
			}
		}
	case *ast.InterfaceType:
		for _, m := range t.Methods.List {
			if len(m.Names) != 1 {
				continue // embedded interface
			}
			fn, ok := c.pkg.Info.Defs[m.Names[0]].(*types.Func)
			for _, v := range append(c.verbsIn(m.Doc), c.verbsIn(m.Comment)...) {
				if ok {
					c.anno.funcs[fn.Origin().FullName()] |= v.bit
				}
			}
		}
	}
}

// applyVarVerbs reports every verb on a package-level variable: none
// applies there.
func (c *annoCollector) applyVarVerbs(doc *ast.CommentGroup) {
	for _, v := range c.verbsIn(doc) {
		c.issuef(v.cm.Pos(), "%s does not apply to a package variable", v.cm.Text)
	}
}
