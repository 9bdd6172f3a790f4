package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeLedger writes a two-run ledger for compare tests.
func writeLedger(t *testing.T, aBench, bBench map[string]*Bench) string {
	t.Helper()
	ledger := Ledger{Runs: []*Run{
		{Label: "before", Bench: aBench},
		{Label: "after", Bench: bBench},
	}}
	data, err := json.Marshal(ledger)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ledger.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func compare(t *testing.T, path string) int {
	t.Helper()
	return compareMain([]string{"-out", path, "before", "after"})
}

// TestCompareGatesOnlySharedBenchmarks: a regression in a shared
// benchmark fails the compare; added and removed benchmarks do not
// participate in the gate.
func TestCompareGatesOnlySharedBenchmarks(t *testing.T) {
	path := writeLedger(t,
		map[string]*Bench{
			"BenchmarkStep": {NsPerOp: 100},
			"BenchmarkOld":  {NsPerOp: 50}, // removed in after
		},
		map[string]*Bench{
			"BenchmarkStep": {NsPerOp: 120},  // 20% regression
			"BenchmarkNew":  {NsPerOp: 9999}, // added; must not gate
		})
	if got := compare(t, path); got != 1 {
		t.Errorf("regressed shared benchmark: compare = %d, want 1", got)
	}
}

// TestCompareCleanWithCompositionChanges: within-limit shared deltas
// pass even when the suite composition changed around them.
func TestCompareCleanWithCompositionChanges(t *testing.T) {
	path := writeLedger(t,
		map[string]*Bench{
			"BenchmarkStep": {NsPerOp: 100},
			"BenchmarkOld":  {NsPerOp: 50},
		},
		map[string]*Bench{
			"BenchmarkStep": {NsPerOp: 103}, // within the 5% limit
			"BenchmarkNew":  {NsPerOp: 1},
		})
	if got := compare(t, path); got != 0 {
		t.Errorf("clean shared benchmark: compare = %d, want 0", got)
	}
}

// TestCompareNoSharedBenchmarks: disjoint suites have nothing to gate,
// so the compare reports the composition change and exits clean.
func TestCompareNoSharedBenchmarks(t *testing.T) {
	path := writeLedger(t,
		map[string]*Bench{"BenchmarkOld": {NsPerOp: 50}},
		map[string]*Bench{"BenchmarkNew": {NsPerOp: 60}})
	if got := compare(t, path); got != 0 {
		t.Errorf("disjoint suites: compare = %d, want 0", got)
	}
}

// TestCompareUnknownLabel stays a hard usage error.
func TestCompareUnknownLabel(t *testing.T) {
	path := writeLedger(t,
		map[string]*Bench{"BenchmarkStep": {NsPerOp: 100}},
		map[string]*Bench{"BenchmarkStep": {NsPerOp: 100}})
	if got := compareMain([]string{"-out", path, "before", "nosuch"}); got != 2 {
		t.Errorf("unknown label: compare = %d, want 2", got)
	}
}

// TestCompareGeomeanSummary: the geomean line weights each shared
// benchmark's ratio equally — a 4x and a 1x speedup average to 2x.
func TestCompareGeomeanSummary(t *testing.T) {
	a := &Run{Label: "before", Bench: map[string]*Bench{
		"BenchmarkFast": {NsPerOp: 400},
		"BenchmarkSame": {NsPerOp: 100},
	}}
	b := &Run{Label: "after", Bench: map[string]*Bench{
		"BenchmarkFast": {NsPerOp: 100}, // 4x
		"BenchmarkSame": {NsPerOp: 100}, // 1x
	}}
	var out, errOut strings.Builder
	if got := compareRuns(&out, &errOut, a, b); got != 0 {
		t.Fatalf("compareRuns = %d, want 0 (stderr: %s)", got, errOut.String())
	}
	want := "geomean speedup: 2.00x over 2 shared benchmark(s)"
	if !strings.Contains(out.String(), want) {
		t.Errorf("output missing %q:\n%s", want, out.String())
	}
}

// TestCompareSweepMetadata: benchmarks carrying the sweep engine's
// "points" / "ms/point" metrics get an indented metadata line with the
// point count, per-point wall cost, and its delta against the baseline.
func TestCompareSweepMetadata(t *testing.T) {
	a := &Run{Label: "before", Bench: map[string]*Bench{
		"BenchmarkFig2fSweep": {NsPerOp: 22e9, Metrics: map[string]float64{"points": 11, "ms/point": 2000}},
		"BenchmarkStep":       {NsPerOp: 100},
	}}
	b := &Run{Label: "after", Bench: map[string]*Bench{
		"BenchmarkFig2fSweep": {NsPerOp: 11e9, Metrics: map[string]float64{"points": 11, "ms/point": 1000}},
		"BenchmarkStep":       {NsPerOp: 100},
	}}
	var out, errOut strings.Builder
	if got := compareRuns(&out, &errOut, a, b); got != 0 {
		t.Fatalf("compareRuns = %d, want 0 (stderr: %s)", got, errOut.String())
	}
	text := out.String()
	for _, want := range []string{"11 pts", "1000.0 ms/point", "(-50.0%)", "wall 11s/op"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
	// The plain benchmark must not grow a sweep line.
	if n := strings.Count(text, "└ sweep"); n != 1 {
		t.Errorf("%d sweep metadata lines, want 1:\n%s", n, text)
	}
}

// TestCompareWarnsOnEnvMismatch: entries recorded under different CPUs
// or GOMAXPROCS get a loud stderr warning — the ledger spans hosts and
// a cross-host delta is noise. Different CPUs also take the result out
// of the gate: the table still prints, marked NOT COMPARABLE, and the
// exit status is exitNotComparable whether the deltas look like a
// regression or a speedup. A GOMAXPROCS difference on one CPU only
// warns; the gate still judges it.
func TestCompareWarnsOnEnvMismatch(t *testing.T) {
	mk := func(cpu string, procs int, ns float64) *Run {
		return &Run{Label: "r-" + cpu, CPU: cpu, GOMAXPROCS: procs,
			Bench: map[string]*Bench{"BenchmarkStep": {NsPerOp: ns}}}
	}
	t.Run("cpu-and-procs-differ", func(t *testing.T) {
		var out, errOut strings.Builder
		if got := compareRuns(&out, &errOut, mk("2.70GHz", 1, 100), mk("2.10GHz", 8, 100)); got != exitNotComparable {
			t.Fatalf("compareRuns = %d, want %d: entries from different CPUs are not comparable", got, exitNotComparable)
		}
		text := errOut.String()
		for _, want := range []string{"WARNING", "2.70GHz", "2.10GHz", "gomaxprocs: 1 vs 8", "not meaningful"} {
			if !strings.Contains(text, want) {
				t.Errorf("stderr missing %q:\n%s", want, text)
			}
		}
		for _, want := range []string{"Step", "geomean speedup", "NOT COMPARABLE"} {
			if !strings.Contains(out.String(), want) {
				t.Errorf("stdout missing %q:\n%s", want, out.String())
			}
		}
	})
	for _, tc := range []struct {
		name   string
		ns     float64
		reason string
	}{
		{"cross-cpu-regression-does-not-fail", 200, "a cross-host slowdown must not fail the gate"},
		{"cross-cpu-speedup-does-not-pass", 50, "a cross-host speedup must not pass the gate"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out, errOut strings.Builder
			if got := compareRuns(&out, &errOut, mk("2.70GHz", 1, 100), mk("2.10GHz", 1, tc.ns)); got != exitNotComparable {
				t.Fatalf("compareRuns = %d, want %d: %s", got, exitNotComparable, tc.reason)
			}
			if strings.Contains(out.String(), "REGRESSION") || strings.Contains(errOut.String(), "regression over") {
				t.Errorf("a not-comparable result is judged as a regression:\n%s%s", out.String(), errOut.String())
			}
			if !strings.Contains(out.String(), "NOT COMPARABLE") {
				t.Errorf("stdout missing NOT COMPARABLE:\n%s", out.String())
			}
		})
	}
	t.Run("regression-still-gates", func(t *testing.T) {
		// Same CPU, different GOMAXPROCS: the warning prints, and the
		// regression still fails the gate.
		var out, errOut strings.Builder
		if got := compareRuns(&out, &errOut, mk("2.10GHz", 1, 100), mk("2.10GHz", 8, 200)); got != 1 {
			t.Fatalf("compareRuns = %d, want 1: the warning must not mask a regression", got)
		}
		if !strings.Contains(errOut.String(), "WARNING") {
			t.Errorf("stderr missing warning:\n%s", errOut.String())
		}
		if strings.Contains(out.String(), "NOT COMPARABLE") {
			t.Errorf("same-CPU entries marked not comparable:\n%s", out.String())
		}
	})
	t.Run("same-env-is-silent", func(t *testing.T) {
		var out, errOut strings.Builder
		if got := compareRuns(&out, &errOut, mk("2.10GHz", 4, 100), mk("2.10GHz", 4, 100)); got != 0 {
			t.Fatalf("compareRuns = %d, want 0", got)
		}
		if strings.Contains(errOut.String(), "WARNING") {
			t.Errorf("unexpected warning for identical environments:\n%s", errOut.String())
		}
	})
	t.Run("unrecorded-fields-do-not-warn", func(t *testing.T) {
		// Early ledger entries predate the gomaxprocs/cpu fields; absence
		// is unknown, not different.
		a := mk("", 0, 100)
		var out, errOut strings.Builder
		if got := compareRuns(&out, &errOut, a, mk("2.10GHz", 4, 100)); got != 0 {
			t.Fatalf("compareRuns = %d, want 0", got)
		}
		if strings.Contains(errOut.String(), "WARNING") {
			t.Errorf("unexpected warning when one side did not record env:\n%s", errOut.String())
		}
	})
}

// TestMergeRecordsPasses: an entry's pass count survives the ledger
// round trip, and an entry without one records none.
func TestMergeRecordsPasses(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.json")
	for _, run := range []*Run{
		{Label: "five", Passes: 5, Bench: map[string]*Bench{"BenchmarkA": {NsPerOp: 1}}},
		{Label: "unset", Bench: map[string]*Bench{"BenchmarkA": {NsPerOp: 1}}},
	} {
		if err := merge(path, run); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var ledger Ledger
	if err := json.Unmarshal(data, &ledger); err != nil {
		t.Fatal(err)
	}
	if got := []int{ledger.Runs[0].Passes, ledger.Runs[1].Passes}; got[0] != 5 || got[1] != 0 {
		t.Fatalf("passes %v after the round trip, want [5 0]", got)
	}
	if strings.Count(string(data), `"passes"`) != 1 {
		t.Fatalf("an unrecorded pass count was written:\n%s", data)
	}
}

// TestMergeKeepsRecordedWorkers: entries recorded with a simulator
// worker setting keep it byte for byte when a new entry, which records
// none, is merged into the ledger.
func TestMergeKeepsRecordedWorkers(t *testing.T) {
	const old = `{
  "runs": [
    {
      "label": "sharded",
      "gomaxprocs": 2,
      "workers": "auto",
      "bench": {
        "BenchmarkA": {
          "ns_per_op": 2
        }
      }
    },
    {
      "label": "serial",
      "gomaxprocs": 2,
      "workers": "serial",
      "passes": 3,
      "bench": {
        "BenchmarkA": {
          "ns_per_op": 1
        }
      }
    }`
	path := filepath.Join(t.TempDir(), "ledger.json")
	if err := os.WriteFile(path, []byte(old+"\n  ]\n}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	run := &Run{Label: "new", GOMAXPROCS: 2, Passes: 3, Bench: map[string]*Bench{"BenchmarkA": {NsPerOp: 1}}}
	if err := merge(path, run); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), old+",\n") {
		t.Fatalf("the recorded entries changed:\n%s", data)
	}
	if n := strings.Count(string(data), `"workers"`); n != 2 {
		t.Fatalf("%d workers fields after the merge, want the 2 recorded ones:\n%s", n, data)
	}
}
