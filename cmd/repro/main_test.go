package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// slowExperiments are the registry entries without a golden: the
// packet-level ablations and the default fig2f sweep take seconds each,
// so tier-1 covers them at reduced sizes instead (fig2f_small here, the
// internal/experiments tests for the rest).
var slowExperiments = map[string]bool{"adapt": true, "latency": true, "planes": true, "fct": true, "fig2f": true}

// TestGoldenOutputs pins repro's stdout byte for byte. Every registry
// entry outside slowExperiments must have testdata/<name>.txt, so a new
// entry cannot skip its golden unnoticed. The Table 1, Figure 2(f) and
// ablation files were captured from the per-experiment commands repro
// replaced (table1, fig2f and ablate), so those experiments keep
// printing exactly what they printed before they shared one path.
func TestGoldenOutputs(t *testing.T) {
	cases := []struct {
		golden string
		args   []string
	}{
		{"table1_csv", []string{"-exp", "table1", "-csv"}},
		{"table1_text_formula", []string{"-exp", "table1", "-text-formula"}},
		{"fig2f_nosim", []string{"-exp", "fig2f", "-sim=false"}},
		{"fig2f_small", strings.Fields("-exp fig2f -n 32 -nc 4 -step 0.5 -warmup 1200 -measure 1200 -backlog 256 -seed 7")},
	}
	for _, e := range experiments.Registry {
		if !slowExperiments[e.Name] {
			cases = append(cases, struct {
				golden string
				args   []string
			}{e.Name, []string{"-exp", e.Name}})
		}
	}
	for _, tc := range cases {
		t.Run(tc.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := run(tc.args, &got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("repro %s:\n got:\n%s\nwant:\n%s", strings.Join(tc.args, " "), got.Bytes(), want)
			}
		})
	}
}

// TestRunRejectsBadInput: flag values an experiment cannot run with
// return an error naming the problem instead of panicking deep inside it
// or printing a table of garbage.
func TestRunRejectsBadInput(t *testing.T) {
	const smallFig2f = "-exp fig2f -n 16 -nc 4 -step 0.5 -warmup 0 -measure 200 -backlog 64"
	cases := []struct {
		name string
		args []string
		want string // substring of the error
	}{
		{"gravity-nc2", strings.Fields("-exp gravity -nc 2"), "at least 3 cliques"},
		{"gravity-nc1", strings.Fields("-exp gravity -nc 1"), "at least 3 cliques"},
		{"adapt-singleton-cliques", strings.Fields("-exp adapt -n 8 -nc 8"), "at least 2 nodes per clique"},
		{"fig2f-negative-cap", strings.Fields("-exp fig2f -cap -3"), "size cap -3"},
		{"fig2f-zero-measure", strings.Fields(smallFig2f + " -measure 0"), "measure slots 0"},
		{"fig2f-zero-backlog", strings.Fields(smallFig2f + " -backlog 0"), "backlog 0"},
		{"table1-x-nan", strings.Fields("-exp table1 -x NaN"), "locality ratio NaN"},
		{"table1-x-2", strings.Fields("-exp table1 -x 2"), "locality ratio 2"},
		{"table1-x-1", strings.Fields("-exp table1 -x 1"), "locality ratio 1"},
		{"table1-zero-uplinks", strings.Fields("-exp table1 -uplinks 0"), "uplinks 0"},
		{"table1-negative-slot", strings.Fields("-exp table1 -slot -100"), "slot -100"},
		{"table1-negative-prop", strings.Fields("-exp table1 -prop -1000"), "propagation -1000"},
		{"qsweep-singleton-cliques", strings.Fields("-exp qsweep -nc 64"), "at least 2 cliques of at least 2 nodes"},
		{"qsweep-one-clique", strings.Fields("-exp qsweep -nc 1"), "at least 2 cliques of at least 2 nodes"},
		{"mismatch-singleton-cliques", strings.Fields("-exp mismatch -nc 64"), "at least 2 cliques of at least 2 nodes"},
		{"mismatch-one-clique", strings.Fields("-exp mismatch -nc 1"), "at least 2 cliques of at least 2 nodes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(tc.args, &out)
			if err == nil {
				t.Fatalf("repro %s: no error, output:\n%s", strings.Join(tc.args, " "), out.Bytes())
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("repro %s: error %q does not mention %q", strings.Join(tc.args, " "), err, tc.want)
			}
		})
	}
}

// FuzzTable1Flags drives repro -exp table1 with fuzzed deployment flags.
// Table 1 is closed form, so every input runs in microseconds. run must
// return an error or a table, never panic, and a table must hold only
// finite numbers.
func FuzzTable1Flags(f *testing.F) {
	f.Add(4096, 16, 100.0, 500.0, 0.56)
	// The float mutator only adds, multiplies and divides by finite
	// values, so NaN and ±Inf are reachable only from seeds.
	f.Add(4096, 16, 100.0, 500.0, math.NaN())
	f.Add(4096, 16, math.Inf(1), math.Inf(-1), 0.56)
	f.Add(0, 1, 1.0, 0.0, 0.0)
	f.Add(64, 4, 90000.0, 1e6, 0.999)
	f.Add(-8, 0, -1.0, -1.0, 1.0)
	f.Fuzz(func(t *testing.T, n, uplinks int, slot, prop, x float64) {
		args := []string{"-exp", "table1",
			fmt.Sprintf("-n=%d", n), fmt.Sprintf("-uplinks=%d", uplinks),
			fmt.Sprintf("-slot=%v", slot), fmt.Sprintf("-prop=%v", prop), fmt.Sprintf("-x=%v", x)}
		var out bytes.Buffer
		if err := run(args, &out); err != nil {
			return
		}
		for _, bad := range []string{"NaN", "Inf"} {
			if strings.Contains(out.String(), bad) {
				t.Fatalf("repro %s printed %s:\n%s", strings.Join(args, " "), bad, out.Bytes())
			}
		}
	})
}
