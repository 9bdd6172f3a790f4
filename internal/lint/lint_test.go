package lint

import (
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// testLoader is shared across tests: the source importer re-type-checks
// the standard library from scratch, so one loader per test binary keeps
// the suite fast.
var (
	loaderOnce sync.Once
	loader     *Loader
	loaderErr  error
)

func sharedLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		wd, err := os.Getwd()
		if err != nil {
			loaderErr = err
			return
		}
		root, err := FindModuleRoot(wd)
		if err != nil {
			loaderErr = err
			return
		}
		loader, loaderErr = NewLoader(root)
	})
	if loaderErr != nil {
		t.Fatalf("building shared loader: %v", loaderErr)
	}
	return loader
}

// mark is one expected (or observed) violation: a file base name, a
// line, and a rule.
type mark struct {
	file string
	line int
	rule string
}

func (m mark) String() string { return m.file + ":" + strconv.Itoa(m.line) + ":" + m.rule }

var wantRe = regexp.MustCompile(`want:([a-z]+)`)

// wantMarks scans a fixture directory for `// want:<rule>` markers.
func wantMarks(t *testing.T, dir string) []mark {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var marks []mark
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				marks = append(marks, mark{file: e.Name(), line: i + 1, rule: m[1]})
			}
		}
	}
	return marks
}

func sortMarks(marks []mark) []mark {
	sort.Slice(marks, func(i, j int) bool {
		a, b := marks[i], marks[j]
		if a.file != b.file {
			return a.file < b.file
		}
		if a.line != b.line {
			return a.line < b.line
		}
		return a.rule < b.rule
	})
	return marks
}

// analyzeFixture loads testdata/src/<rel> under the given import path
// and returns the findings as marks.
func analyzeFixture(t *testing.T, rel, asPath string) []mark {
	t.Helper()
	l := sharedLoader(t)
	dir := filepath.Join("testdata", "src", filepath.FromSlash(rel))
	pkg, err := l.LoadFixture(dir, asPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", rel, err)
	}
	findings := Run([]*Package{pkg}, Analyzers())
	var got []mark
	for _, f := range findings {
		got = append(got, mark{file: filepath.Base(f.Pos.Filename), line: f.Pos.Line, rule: f.Rule})
	}
	return got
}

// fixturePath places a fixture under the module's internal/ tree so
// internal-only rules (noderterm) apply.
func fixturePath(l *Loader, rel string) string {
	return l.ModulePath + "/internal/lintfixture/" + rel
}

// TestFixtures checks every rule against its bad and clean fixtures,
// plus the directive fixture: the findings must match the `want:`
// markers exactly — same files, same lines, same rules.
func TestFixtures(t *testing.T) {
	fixtures := []string{
		"noderterm/bad", "noderterm/clean",
		"rngdiscipline/bad", "rngdiscipline/clean",
		"maporder/bad", "maporder/clean",
		"floateq/bad", "floateq/clean",
		"droppederr/bad", "droppederr/clean",
		"hotalloc/bad", "hotalloc/clean",
		"obsnil/bad", "obsnil/clean",
		"stalesuppress",
		"directive",
	}
	l := sharedLoader(t)
	for _, rel := range fixtures {
		rel := rel
		t.Run(strings.ReplaceAll(rel, "/", "_"), func(t *testing.T) {
			want := sortMarks(wantMarks(t, filepath.Join("testdata", "src", filepath.FromSlash(rel))))
			got := sortMarks(analyzeFixture(t, rel, fixturePath(l, rel)))
			if strings.HasSuffix(rel, "/bad") && len(want) == 0 {
				t.Fatalf("bad fixture %s has no want: markers; the fixture is broken", rel)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("findings mismatch for %s:\n got: %v\nwant: %v", rel, got, want)
			}
		})
	}
}

// TestNoDetermScopedToInternal loads the noderterm bad fixture under a
// non-internal import path: the rule must stay silent there, because
// cmd/ and the module root legitimately touch time and the environment.
func TestNoDetermScopedToInternal(t *testing.T) {
	l := sharedLoader(t)
	got := analyzeFixture(t, "noderterm/bad", l.ModulePath+"/lintfixture/noderterm")
	for _, m := range got {
		if m.rule == noDetermName {
			t.Errorf("noderterm fired outside internal/: %v", m)
		}
	}
}

// TestDirectiveSuppressesOnlyNamedRule double-checks the semantics the
// directive fixture's markers encode: the wrong-rule directive must not
// silence maporder, and both correct directives must silence exactly
// their rule.
func TestDirectiveSuppressesOnlyNamedRule(t *testing.T) {
	l := sharedLoader(t)
	got := analyzeFixture(t, "directive", fixturePath(l, "directive"))
	rules := make(map[string]int)
	for _, m := range got {
		rules[m.rule]++
	}
	if rules[mapOrderName] != 1 {
		t.Errorf("want exactly 1 surviving maporder finding (the wrong-rule directive), got %d", rules[mapOrderName])
	}
	if rules[droppedErrName] != 1 {
		t.Errorf("want exactly 1 surviving droppederr finding (the unsuppressed call), got %d", rules[droppedErrName])
	}
}

func TestParseIgnoreComment(t *testing.T) {
	cases := []struct {
		text  string
		rules []string
		ok    bool
	}{
		{"//sornlint:ignore maporder", []string{"maporder"}, true},
		{"//sornlint:ignore maporder -- keys are sorted below", []string{"maporder"}, true},
		{"//sornlint:ignore maporder,floateq", []string{"maporder", "floateq"}, true},
		{"//sornlint:ignore maporder, floateq -- two rules", []string{"maporder", "floateq"}, true},
		{"//sornlint:ignore", nil, false},
		{"//sornlint:ignore -- reason but no rule", nil, false},
		{"//sornlint:ignoremaporder", nil, false},
		{"// sornlint:ignore maporder", nil, false},
		{"// plain comment", nil, false},
	}
	for _, c := range cases {
		rules, ok := parseIgnoreComment(c.text)
		if ok != c.ok || !reflect.DeepEqual(rules, c.rules) {
			t.Errorf("parseIgnoreComment(%q) = %v, %v; want %v, %v", c.text, rules, ok, c.rules, c.ok)
		}
	}
}

func TestAnalyzerByName(t *testing.T) {
	for _, a := range Analyzers() {
		if got := AnalyzerByName(a.Name); got != a {
			t.Errorf("AnalyzerByName(%q) = %v, want %v", a.Name, got, a)
		}
	}
	if got := AnalyzerByName("nosuchrule"); got != nil {
		t.Errorf("AnalyzerByName(nosuchrule) = %v, want nil", got)
	}
}

func TestFindingString(t *testing.T) {
	f := Finding{Rule: "maporder", Msg: "range over map m appends to a slice"}
	f.Pos.Filename, f.Pos.Line, f.Pos.Column = "x.go", 12, 2
	const want = "x.go:12:2: range over map m appends to a slice (maporder)"
	if got := f.String(); got != want {
		t.Errorf("Finding.String() = %q, want %q", got, want)
	}
}

// TestParseDirHonorsBuildConstraints: a package split by target system,
// one file per system declaring the same function, must load the way
// go build selects its files, not as a redeclaration.
func TestParseDirHonorsBuildConstraints(t *testing.T) {
	dir := t.TempDir()
	other := "windows"
	if runtime.GOOS == other {
		other = "linux"
	}
	for name, src := range map[string]string{
		"a.go":                           "package p\n\nfunc f() {}\n",
		"b_" + other + ".go":             "package p\n\nfunc f() {}\n",
		"c.go":                           "//go:build ignore\n\npackage p\n\nfunc f() {}\n",
		"d_" + runtime.GOOS + "_test.go": "package p\n",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	files, _, err := sharedLoader(t).parseDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range files {
		got = append(got, filepath.Base(sharedLoader(t).fset.File(f.Pos()).Name()))
	}
	sort.Strings(got)
	if want := []string{"a.go", "d_" + runtime.GOOS + "_test.go"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("parsed %v, want %v", got, want)
	}
}
