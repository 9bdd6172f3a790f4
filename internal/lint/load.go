package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one fully type-checked analysis unit: a package's compiled
// files plus, when present, its in-package _test.go files. External test
// packages (package foo_test) form their own unit.
type Package struct {
	Path       string // import path ("repro/internal/rng")
	Dir        string
	ModulePath string
	Fset       *token.FileSet
	Files      []*ast.File
	TestFiles  map[*ast.File]bool
	Types      *types.Package
	Info       *types.Info
}

// Loader parses and type-checks the packages of one module using only
// the standard library: module-local imports are resolved against the
// module directory and type-checked from source recursively; everything
// else (the standard library) is delegated to go/importer's source
// importer.
type Loader struct {
	ModuleDir  string
	ModulePath string

	fset    *token.FileSet
	std     types.Importer
	base    map[string]*types.Package // import path -> test-free package
	loading map[string]bool
}

// NewLoader creates a loader rooted at the directory containing go.mod.
func NewLoader(moduleDir string) (*Loader, error) {
	modPath, err := modulePath(filepath.Join(moduleDir, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		ModuleDir:  moduleDir,
		ModulePath: modPath,
		fset:       fset,
		std:        importer.ForCompiler(fset, "source", nil),
		base:       make(map[string]*types.Package),
		loading:    make(map[string]bool),
	}, nil
}

// FindModuleRoot walks up from dir to the nearest directory with a go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// modulePath extracts the module declaration from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("lint: no module declaration in %s", gomod)
}

// LoadModule type-checks every package under the module root (skipping
// testdata and hidden directories) and returns one analysis unit per
// package, plus one per external test package.
func (l *Loader) LoadModule() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.ModuleDir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.ModuleDir && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		if hasGoFiles(path) {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)

	var pkgs []*Package
	for _, dir := range dirs {
		units, err := l.loadDirUnits(dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, units...)
	}
	return pkgs, nil
}

// LoadFixture type-checks a single directory outside the module walk
// (e.g. a testdata fixture) as though its import path were asPath.
func (l *Loader) LoadFixture(dir, asPath string) (*Package, error) {
	files, testFiles, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	return l.check(asPath, dir, files, testFiles)
}

// hasGoFiles reports whether dir directly contains any .go file.
func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasPrefix(e.Name(), "_") {
			return true
		}
	}
	return false
}

// importPathFor maps a module-relative directory to its import path.
func (l *Loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.ModuleDir, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.ModulePath, nil
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel), nil
}

// parseDir parses every .go file in dir that builds for the host
// (file-name GOOS/GOARCH suffixes and //go:build lines, as go build
// selects them), returning the files and which of them are _test.go
// files.
func (l *Loader) parseDir(dir string) ([]*ast.File, map[*ast.File]bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var files []*ast.File
	testFiles := make(map[*ast.File]bool)
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, "_") || strings.HasPrefix(name, ".") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, nil, err
		} else if !ok {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, err
		}
		files = append(files, f)
		if strings.HasSuffix(name, "_test.go") {
			testFiles[f] = true
		}
	}
	return files, testFiles, nil
}

// loadDirUnits builds the analysis units for one directory: the package
// itself (with in-package test files) and, if present, the external test
// package.
func (l *Loader) loadDirUnits(dir string) ([]*Package, error) {
	path, err := l.importPathFor(dir)
	if err != nil {
		return nil, err
	}
	files, testFiles, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	// Group by package clause: the compiled package and the _test package.
	var baseName string
	for _, f := range files {
		if !testFiles[f] {
			baseName = f.Name.Name
			break
		}
	}
	var compiled, external []*ast.File
	for _, f := range files {
		switch {
		case strings.HasSuffix(f.Name.Name, "_test") && (baseName == "" || f.Name.Name != baseName):
			external = append(external, f)
		default:
			compiled = append(compiled, f)
		}
	}

	var out []*Package
	if len(compiled) > 0 {
		pkg, err := l.check(path, dir, compiled, testFiles)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	if len(external) > 0 {
		pkg, err := l.check(path+"_test", dir, external, testFiles)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// Import resolves one import path for the type checker: module-local
// packages recursively from source (test files excluded), the rest via
// the standard library's source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		return l.importBase(path)
	}
	return l.std.Import(path)
}

// importBase type-checks the compiled (test-free) files of a module
// package, memoized.
func (l *Loader) importBase(path string) (*types.Package, error) {
	if pkg, ok := l.base[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := filepath.Join(l.ModuleDir, filepath.FromSlash(strings.TrimPrefix(path, l.ModulePath)))
	files, testFiles, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	var compiled []*ast.File
	for _, f := range files {
		if !testFiles[f] {
			compiled = append(compiled, f)
		}
	}
	if len(compiled) == 0 {
		return nil, fmt.Errorf("lint: no non-test Go files in %s", dir)
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, compiled, nil)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	l.base[path] = pkg
	return pkg, nil
}

// check type-checks one analysis unit with full type information.
func (l *Loader) check(path, dir string, files []*ast.File, testFiles map[*ast.File]bool) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	unitTests := make(map[*ast.File]bool)
	for _, f := range files {
		if testFiles[f] {
			unitTests[f] = true
		}
	}
	return &Package{
		Path:       path,
		Dir:        dir,
		ModulePath: l.ModulePath,
		Fset:       l.fset,
		Files:      files,
		TestFiles:  unitTests,
		Types:      tpkg,
		Info:       info,
	}, nil
}
