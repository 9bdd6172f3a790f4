package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGoldenOutputs pins repro's stdout byte for byte. The testdata files
// were captured from the per-experiment commands repro replaced (table1,
// fig2f and ablate), so the experiments keep printing exactly what they
// printed before they shared one path. The slow packet-level ablations
// (adapt, latency, planes, fct) and the default fig2f sweep are left out
// to keep tier-1 fast.
func TestGoldenOutputs(t *testing.T) {
	cases := []struct {
		golden string
		args   []string
	}{
		{"table1", []string{"-exp", "table1"}},
		{"table1_csv", []string{"-exp", "table1", "-csv"}},
		{"table1_text_formula", []string{"-exp", "table1", "-text-formula"}},
		{"fig2f_nosim", []string{"-exp", "fig2f", "-sim=false"}},
		{"fig2f_small", strings.Fields("-exp fig2f -n 32 -nc 4 -step 0.5 -warmup 1200 -measure 1200 -backlog 256 -seed 7")},
	}
	for _, name := range strings.Fields("mismatch qsweep ncsweep blast gravity pairs sync state phys diurnal") {
		cases = append(cases, struct {
			golden string
			args   []string
		}{name, []string{"-exp", name}})
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
// return an error naming the problem instead of panicking deep inside it.
func TestRunRejectsBadInput(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring of the error
	}{
		{"gravity-nc2", strings.Fields("-exp gravity -nc 2"), "at least 3 cliques"},
		{"gravity-nc1", strings.Fields("-exp gravity -nc 1"), "at least 3 cliques"},
		{"adapt-singleton-cliques", strings.Fields("-exp adapt -n 8 -nc 8"), "at least 2 nodes per clique"},
		{"fig2f-negative-cap", strings.Fields("-exp fig2f -cap -3"), "size cap -3"},
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
