// TestSornlintClean wires the determinism & correctness analyzers
// (internal/lint) into tier-1: `go test ./...` fails on any rule
// violation anywhere in the module that is not tolerated by the
// committed lint_baseline.json, so a time.Now in a simulation package,
// an unguarded observer call, or an allocation on an annotated
// hot path can't land unnoticed. The same analysis is runnable
// standalone:
//
//	go run ./cmd/sornlint -json -baseline lint_baseline.json ./...
//
// Inside ci.sh that command runs as its own timed step before the test
// steps and exports SORNLINT_CI_RAN, which this test honors by
// skipping — one whole-module type-check per ci.sh run instead of one
// per `go test` invocation.
package repro_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/lint"
)

func TestSornlintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	if os.Getenv("SORNLINT_CI_RAN") != "" {
		t.Skip("sornlint already ran as a dedicated ci.sh step")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, err := lint.FindModuleRoot(wd)
	if err != nil {
		t.Fatal(err)
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadModule()
	if err != nil {
		t.Fatal(err)
	}
	findings := lint.Run(pkgs, lint.Analyzers())
	base, err := lint.LoadBaseline(filepath.Join(root, "lint_baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	fresh := base.Diff(findings, root)
	for _, f := range fresh {
		t.Error(f.String())
	}
	if len(fresh) > 0 {
		t.Logf("%d new finding(s) not in lint_baseline.json; fix them, add a justified //sornlint:ignore directive, or regenerate the baseline (scripts/lint-baseline.sh)", len(fresh))
	}
}
