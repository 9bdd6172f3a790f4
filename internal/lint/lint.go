// Package lint is a static-analysis framework, built only on the
// standard library's go/ast, go/parser, and go/types, that enforces this
// repository's determinism and correctness discipline. Every number the
// repo produces (Table 1, Figure 2f, the ablation sweeps) is only
// meaningful if simulation runs are bit-for-bit reproducible, so the
// rules here reject the constructs that silently break reproducibility:
// wall-clock time and global randomness in simulation packages,
// package-level RNG state, order-sensitive iteration over maps, exact
// floating-point equality, and dropped errors.
//
// On top of the per-file rules, a whole-program layer (see Module in
// callgraph.go) builds a lightweight callgraph over the type-checked
// module and enforces the simulator's conventions statically: annotated
// hot paths must not heap-allocate (hotalloc), Observer calls must be
// nil-guarded (obsnil), and suppression directives that suppress
// nothing are themselves findings (stalesuppress). The invariants the
// rules consume are declared in source with //sornlint:<verb>
// annotations (see annotations.go).
//
// The analyzers run over fully type-checked packages (see Loader), are
// wired into tier-1 via the repository-root lint_test.go, and are
// runnable standalone with `go run ./cmd/sornlint ./...`. Analysis runs
// one package per worker and merges findings in fixed package order —
// the same determinism discipline the rules enforce.
//
// A finding can be suppressed with an inline directive on the same line
// or the line directly above it:
//
//	//sornlint:ignore maporder -- keys are sorted below
//
// The directive names exactly the rules it suppresses (comma-separated);
// everything after " -- " is a free-form justification. A directive
// inside a declaration's doc comment also covers the declaration's
// first line. Directives naming unknown rules, or suppressing zero
// findings, are reported by the stalesuppress rule.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Finding is one rule violation at one source position.
type Finding struct {
	Pos  token.Position
	Rule string
	Msg  string
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Msg, f.Rule)
}

// Analyzer is one named rule.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Analyzers returns every rule, in reporting order. StaleSuppress is
// last by construction: it audits the suppression accounting the other
// rules produce.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		NoDeterm, RNGDiscipline, MapOrder, FloatEq, DroppedErr,
		HotAlloc, ObsNil, StaleSuppress,
	}
}

// AnalyzerByName returns the named rule, or nil.
func AnalyzerByName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// directive is one //sornlint:ignore comment: where it is, which rules
// it names, and how many findings it suppressed per rule. The counts
// feed the stalesuppress rule.
type directive struct {
	pos   token.Position
	rules []string
	used  map[string]int
}

// Pass is the per-package state handed to each analyzer.
type Pass struct {
	ModulePath string
	PkgPath    string
	Fset       *token.FileSet
	Files      []*ast.File
	Pkg        *types.Package
	Info       *types.Info

	// Mod is the whole-program context (annotations, callgraph,
	// reachability); non-nil for every Run.
	Mod *Module

	testFiles  map[*ast.File]bool
	active     map[string]bool                          // analyzer names in this run
	ignores    map[string]map[int]map[string]*directive // filename -> line -> rule -> directive
	directives []*directive                             // in source order
	findings   *[]Finding
}

// IsTestFile reports whether f came from a _test.go file.
func (p *Pass) IsTestFile(f *ast.File) bool { return p.testFiles[f] }

// InternalPkg reports whether the package lives under <module>/internal/.
func (p *Pass) InternalPkg() bool {
	return strings.HasPrefix(p.PkgPath, p.ModulePath+"/internal/")
}

// FuncKey resolves a function declaration to its canonical callgraph
// key, or "".
func (p *Pass) FuncKey(fd *ast.FuncDecl) string {
	if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
		return funcKey(fn)
	}
	return ""
}

// Reportf records a finding unless an ignore directive suppresses it;
// either way the directive's usage accounting is updated.
func (p *Pass) Reportf(pos token.Pos, rule, format string, args ...interface{}) {
	position := p.Fset.Position(pos)
	if lines, ok := p.ignores[position.Filename]; ok {
		for _, l := range []int{position.Line, position.Line - 1} {
			if d := lines[l][rule]; d != nil {
				d.used[rule]++
				return
			}
		}
	}
	*p.findings = append(*p.findings, Finding{
		Pos:  position,
		Rule: rule,
		Msg:  fmt.Sprintf(format, args...),
	})
}

// ignoreDirective is the magic comment prefix.
const ignoreDirective = "//sornlint:ignore"

// parseDirectives indexes every suppression directive in the pass's
// files: at the directive's own line, and — when the directive sits in
// a declaration's doc comment — at the declaration's first line too, so
// a multi-line doc group can suppress findings on the declaration it
// documents.
func (p *Pass) parseDirectives() {
	p.ignores = make(map[string]map[int]map[string]*directive)
	byComment := make(map[*ast.Comment]*directive)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rules, ok := parseIgnoreComment(c.Text)
				if !ok {
					continue
				}
				d := &directive{
					pos:   p.Fset.Position(c.Pos()),
					rules: rules,
					used:  make(map[string]int),
				}
				byComment[c] = d
				p.directives = append(p.directives, d)
				p.registerDirective(d, d.pos.Filename, d.pos.Line)
			}
		}
		p.attachDocDirectives(f, byComment)
	}
}

// attachDocDirectives re-registers doc-comment directives at the line
// of the declaration (or spec, or field) the doc group is attached to.
func (p *Pass) attachDocDirectives(f *ast.File, byComment map[*ast.Comment]*directive) {
	register := func(doc *ast.CommentGroup, node ast.Node) {
		if doc == nil {
			return
		}
		pos := p.Fset.Position(node.Pos())
		for _, c := range doc.List {
			if d := byComment[c]; d != nil {
				p.registerDirective(d, pos.Filename, pos.Line)
			}
		}
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			register(d.Doc, d)
		case *ast.GenDecl:
			register(d.Doc, d)
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					register(s.Doc, s)
					if st, ok := s.Type.(*ast.StructType); ok {
						for _, field := range st.Fields.List {
							register(field.Doc, field)
						}
					}
				case *ast.ValueSpec:
					register(s.Doc, s)
				}
			}
		}
	}
}

// registerDirective indexes d at (filename, line) for each rule it
// names; the first directive registered for a (line, rule) wins.
func (p *Pass) registerDirective(d *directive, filename string, line int) {
	byLine := p.ignores[filename]
	if byLine == nil {
		byLine = make(map[int]map[string]*directive)
		p.ignores[filename] = byLine
	}
	set := byLine[line]
	if set == nil {
		set = make(map[string]*directive)
		byLine[line] = set
	}
	for _, r := range d.rules {
		if set[r] == nil {
			set[r] = d
		}
	}
}

// parseIgnoreComment extracts the rule names from one directive comment.
func parseIgnoreComment(text string) ([]string, bool) {
	if !strings.HasPrefix(text, ignoreDirective) {
		return nil, false
	}
	rest := strings.TrimPrefix(text, ignoreDirective)
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return nil, false
	}
	// Strip the optional " -- reason" trailer.
	if i := strings.Index(rest, "--"); i >= 0 {
		rest = rest[:i]
	}
	var rules []string
	for _, field := range strings.Fields(rest) {
		for _, r := range strings.Split(field, ",") {
			if r != "" {
				rules = append(rules, r)
			}
		}
	}
	return rules, len(rules) > 0
}

// Run builds the whole-program Module context, applies the analyzers
// one package per worker, and returns the surviving findings merged in
// fixed package order and sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	mod := BuildModule(pkgs)

	results := make([][]Finding, len(pkgs))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(pkgs) {
		workers = len(pkgs)
	}
	if workers < 1 {
		workers = 1
	}
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= len(pkgs) {
					return
				}
				results[i] = runPackage(pkgs[i], mod, analyzers)
			}
		}()
	}
	wg.Wait()

	var findings []Finding
	for _, r := range results {
		findings = append(findings, r...)
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Msg < b.Msg
	})
	return findings
}

// runPackage applies the analyzers to one package. StaleSuppress (when
// present) runs after every other rule so the directive usage counts it
// audits are final.
func runPackage(pkg *Package, mod *Module, analyzers []*Analyzer) []Finding {
	var findings []Finding
	pass := &Pass{
		ModulePath: pkg.ModulePath,
		PkgPath:    pkg.Path,
		Fset:       pkg.Fset,
		Files:      pkg.Files,
		Pkg:        pkg.Types,
		Info:       pkg.Info,
		Mod:        mod,
		testFiles:  pkg.TestFiles,
		active:     make(map[string]bool, len(analyzers)),
		findings:   &findings,
	}
	for _, a := range analyzers {
		pass.active[a.Name] = true
	}
	pass.parseDirectives()
	var last []*Analyzer
	for _, a := range analyzers {
		if a.Name == staleSuppressName {
			last = append(last, a)
			continue
		}
		a.Run(pass)
	}
	for _, a := range last {
		a.Run(pass)
	}
	return findings
}
