package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
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

// FuzzFig2fFlags drives repro -exp fig2f -sim=false with fuzzed -n,
// -nc, -step and -cap: only schedule builds and fluid solves, no packet
// simulation. Inputs over 256 nodes or with a step under 0.05 (more
// than 21 grid points) are skipped, so no input builds a huge schedule
// or runs a long sweep. run must return an error or a table, never
// panic, and every row's fluid θ must lie in (0, thetaCap(x, k)].
func FuzzFig2fFlags(f *testing.F) {
	f.Add(32, 4, 0.5, 1333)
	f.Add(128, 8, 0.25, 1333)
	f.Add(16, 16, 1.0, 1)
	f.Add(12, 3, 0.1, 5)
	f.Add(64, 1, 0.3, 1333)
	f.Add(0, 0, 0.5, 1333)
	f.Add(30, 4, 0.5, 1333)
	f.Add(32, 4, math.NaN(), 0)
	f.Fuzz(func(t *testing.T, n, nc int, step float64, sizeCap int) {
		if n > 256 || step < 0.05 {
			t.Skip()
		}
		// Every input visits new (n, nc, q) keys; keep the process-wide
		// build cache from holding all of them.
		core.SharedBuilds.Reset()
		args := []string{"-exp", "fig2f", "-sim=false", "-csv",
			fmt.Sprintf("-n=%d", n), fmt.Sprintf("-nc=%d", nc),
			fmt.Sprintf("-step=%v", step), fmt.Sprintf("-cap=%d", sizeCap)}
		var out bytes.Buffer
		if err := run(args, &out); err != nil {
			return
		}
		if n == 0 {
			n = 128
		}
		if nc == 0 {
			nc = 8
		}
		rows := 0
		for _, line := range strings.Split(out.String(), "\n") {
			cols := strings.Split(line, ",")
			x, errX := strconv.ParseFloat(cols[0], 64)
			if len(cols) != 6 || errX != nil {
				continue
			}
			rows++
			theta, err := strconv.ParseFloat(cols[2], 64)
			if err != nil {
				t.Fatalf("repro %s: fluid θ %q in row %q", strings.Join(args, " "), cols[2], line)
			}
			// The table rounds θ to 4 decimals.
			if limit := thetaCap(x, n/nc); !(theta > 0 && theta <= limit+5e-5) {
				t.Fatalf("repro %s: fluid θ %v outside (0, %.4f] in row %q",
					strings.Join(args, " "), theta, limit, line)
			}
		}
		if rows == 0 {
			t.Fatalf("repro %s printed no rows:\n%s", strings.Join(args, " "), out.Bytes())
		}
	})
}

// ablationNames are the registry entries after fig2f: the ablations,
// which read repro's shared -n, -nc and -seed flags.
func ablationNames() []string {
	var names []string
	after := false
	for _, e := range experiments.Registry {
		if after {
			names = append(names, e.Name)
		}
		after = after || e.Name == "fig2f"
	}
	return names
}

// FuzzAblationFlags drives every ablation entry with fuzzed -n, -nc and
// -seed. Inputs over 32 nodes, or at -n 0 (an entry's own default, 64),
// or with more than 64 cliques are skipped, so no input builds a large
// network: at -n 16 -nc 4 every entry runs in under a second. run must
// return an error or print at least one table row, never panic, and a
// negative -n must be an error for every entry, including those of
// fixed size, which read no -n at all.
func FuzzAblationFlags(f *testing.F) {
	names := ablationNames()
	for i := range names {
		f.Add(uint8(i), 16, 4, uint64(11))
		f.Add(uint8(i), -8, 4, uint64(11))
	}
	f.Add(uint8(0), 32, 8, uint64(0))
	f.Add(uint8(4), 8, 8, uint64(1))
	f.Add(uint8(9), -16, 4, uint64(7))
	f.Add(uint8(13), 12, 0, uint64(3))
	f.Add(uint8(2), 1, 1, uint64(5))
	f.Add(uint8(6), 20, -3, uint64(9))
	f.Fuzz(func(t *testing.T, entry uint8, n, nc int, seed uint64) {
		if n > 32 || n == 0 || nc > 64 {
			t.Skip()
		}
		// Every input visits new (n, nc, q) keys; keep the process-wide
		// build cache from holding all of them.
		core.SharedBuilds.Reset()
		args := []string{"-exp", names[int(entry)%len(names)], "-csv",
			fmt.Sprintf("-n=%d", n), fmt.Sprintf("-nc=%d", nc), fmt.Sprintf("-seed=%d", seed)}
		var out bytes.Buffer
		err := run(args, &out)
		if n < 0 && err == nil {
			t.Fatalf("repro %s accepted a negative -n:\n%s", strings.Join(args, " "), out.Bytes())
		}
		if err != nil {
			return
		}
		// Title, CSV header, rows with the header's column count, notes.
		lines := strings.Split(out.String(), "\n")
		rows := 0
		if len(lines) > 2 {
			cols := strings.Count(lines[1], ",")
			for _, line := range lines[2:] {
				if line != "" && strings.Count(line, ",") == cols {
					rows++
				}
			}
		}
		if rows == 0 {
			t.Fatalf("repro %s printed no rows:\n%s", strings.Join(args, " "), out.Bytes())
		}
	})
}

// thetaCap bounds the fluid θ of a SORN with cliques of k nodes under a
// saturation matrix with intra-clique fraction x. Every node sends and
// receives one unit of capacity, so θ·h ≤ 1 for the demand-weighted
// mean hop count h. Intra traffic takes the direct path with
// probability 1/(k−1) and two hops otherwise, and inter traffic takes at
// least one hop, so h ≥ x·(2k−3)/(k−1) + (1−x). At x = 1 this is 2-hop
// VLB's (k−1)/(2k−3), which tops 1/2 for small cliques (0.5063 at
// n=32, nc=4).
func thetaCap(x float64, k int) float64 {
	if k < 2 {
		return 1
	}
	return 1 / (x*float64(2*k-3)/float64(k-1) + (1 - x))
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
