package lint

import (
	"bytes"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestReportGoldenJSON pins the -json output format byte for byte: the
// committed lint_baseline.json is in this format, so accidental schema
// drift would orphan every baseline.
func TestReportGoldenJSON(t *testing.T) {
	findings := []Finding{
		{Pos: position("/mod/internal/netsim/netsim.go", 41, 7), Rule: "maporder", Msg: "range over map m appends to a slice"},
		{Pos: position("/mod/cmd/tool/main.go", 9, 2), Rule: "hotalloc", Msg: "new(T) allocates; reuse a caller-owned value (hot path via push)"},
	}
	var buf bytes.Buffer
	if err := NewReport(findings, "/mod").Write(&buf); err != nil {
		t.Fatal(err)
	}
	const want = `{
  "findings": [
    {
      "file": "internal/netsim/netsim.go",
      "line": 41,
      "col": 7,
      "rule": "maporder",
      "msg": "range over map m appends to a slice"
    },
    {
      "file": "cmd/tool/main.go",
      "line": 9,
      "col": 2,
      "rule": "hotalloc",
      "msg": "new(T) allocates; reuse a caller-owned value (hot path via push)"
    }
  ]
}
`
	if got := buf.String(); got != want {
		t.Errorf("golden JSON mismatch:\n got: %s\nwant: %s", got, want)
	}
}

// TestReportGoldenJSONEmpty pins the zero-findings document: an empty
// findings array, not null, so baselines stay diffable with jq.
func TestReportGoldenJSONEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := NewReport(nil, "/mod").Write(&buf); err != nil {
		t.Fatal(err)
	}
	const want = "{\n  \"findings\": []\n}\n"
	if got := buf.String(); got != want {
		t.Errorf("empty report = %q, want %q", got, want)
	}
}

func position(file string, line, col int) token.Position {
	return token.Position{Filename: file, Line: line, Column: col}
}

// TestBaselineRoundTrip writes a report from real findings and checks
// the load→diff cycle tolerates exactly those findings: the committed
// baseline workflow (scripts/lint-baseline.sh, then ci.sh gating) hangs
// off this property.
func TestBaselineRoundTrip(t *testing.T) {
	l := sharedLoader(t)
	findings := fixtureFindings(t, "hotalloc/bad")
	if len(findings) == 0 {
		t.Fatal("hotalloc/bad produced no findings; the round trip is vacuous")
	}
	root := l.ModuleDir

	path := filepath.Join(t.TempDir(), "baseline.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := NewReport(findings, root).Write(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	base, err := LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if fresh := base.Diff(findings, root); len(fresh) != 0 {
		t.Errorf("round trip left %d findings uncovered: %v", len(fresh), fresh)
	}

	// An empty baseline tolerates nothing.
	empty := &Report{}
	if fresh := empty.Diff(findings, root); !reflect.DeepEqual(fresh, findings) {
		t.Errorf("empty baseline diff = %v, want all %d findings", fresh, len(findings))
	}
}

// TestBaselineGatesNewFindings drops one finding from the baseline and
// checks the diff reports exactly that finding as new — the CI contract:
// pre-existing findings are tolerated, new ones fail the build.
func TestBaselineGatesNewFindings(t *testing.T) {
	l := sharedLoader(t)
	findings := fixtureFindings(t, "hotalloc/bad")
	if len(findings) < 2 {
		t.Fatalf("need at least 2 findings to exercise the gate, got %d", len(findings))
	}
	root := l.ModuleDir
	base := NewReport(findings[1:], root)
	fresh := base.Diff(findings, root)
	if len(fresh) != 1 || !reflect.DeepEqual(fresh[0], findings[0]) {
		t.Errorf("diff = %v, want exactly the dropped finding %v", fresh, findings[0])
	}
}

// TestLoadBaselineMissing checks a missing baseline file is the empty
// baseline, so a fresh checkout needs no bootstrap step.
func TestLoadBaselineMissing(t *testing.T) {
	base, err := LoadBaseline(filepath.Join(t.TempDir(), "nope.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Findings) != 0 {
		t.Errorf("missing baseline has %d findings, want 0", len(base.Findings))
	}
}

// TestSeededViolationsFailCI seeds one violation per whole-program rule
// (the bad fixtures) and checks each survives an empty-baseline diff —
// the exact path ci.sh gates on: `sornlint -json -baseline` exits
// nonzero when the diff is non-empty.
func TestSeededViolationsFailCI(t *testing.T) {
	l := sharedLoader(t)
	cases := []struct {
		fixture string
		rule    string
	}{
		{"hotalloc/bad", hotAllocName},
		{"obsnil/bad", obsNilName},
		{"stalesuppress", staleSuppressName},
	}
	empty := &Report{}
	for _, c := range cases {
		findings := fixtureFindings(t, c.fixture)
		fresh := empty.Diff(findings, l.ModuleDir)
		n := 0
		for _, f := range fresh {
			if f.Rule == c.rule {
				n++
			}
		}
		if n == 0 {
			t.Errorf("seeded %s violation in %s did not survive the baseline gate", c.rule, c.fixture)
		}
	}
}

// fixtureFindings runs the full analyzer set over one fixture and
// returns the raw findings (not reduced to marks).
func fixtureFindings(t *testing.T, rel string) []Finding {
	t.Helper()
	l := sharedLoader(t)
	dir := filepath.Join("testdata", "src", filepath.FromSlash(rel))
	pkg, err := l.LoadFixture(dir, fixturePath(l, rel))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", rel, err)
	}
	return Run([]*Package{pkg}, Analyzers())
}
