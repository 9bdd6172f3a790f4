// Command benchjson maintains a JSON benchmark ledger (BENCH_netsim.json
// by default), so every PR can commit before/after numbers for the
// simulator hot path next to the code that changed them.
//
// Recording converts `go test -bench` output on stdin into a labeled
// ledger entry:
//
//	go test -run NONE -bench . -benchmem | benchjson -label after-pr2
//
// The ledger holds one entry per label, in insertion order; re-running
// with an existing label replaces that entry. For benchmarks repeated
// with -count, the line with the lowest ns/op wins (the least-noise
// run). Custom b.ReportMetric units land under "metrics". Each entry
// records the GOMAXPROCS and simulator worker setting it ran under, so
// wall-clock comparisons across entries carry their parallelism context;
// beyond that, no timestamps or host-volatile fields are recorded:
// identical bench output under an identical environment must produce an
// identical file.
//
// Comparing prints per-benchmark deltas between two recorded entries and
// exits nonzero if any shared benchmark's ns/op regressed by more than
// 5% — wire it into CI to keep the hot path from quietly backsliding:
//
//	benchjson compare pr3-before pr3-after
//
// Two entries recorded on different CPUs are not comparable: the table
// is still printed, but the result is marked NOT COMPARABLE and the exit
// status is 3 whatever the deltas say, so a cross-host "regression" or
// "speedup" can neither fail nor pass the gate.
//
// Benchmarks present in only one entry are listed explicitly as added
// or removed; the regression gate judges only benchmarks shared by both
// entries, and two entries with no shared benchmarks compare clean
// (exit 0) with a notice, since there is nothing to gate. The table ends
// with a geomean-speedup summary over the shared benchmarks, and sweep
// benchmarks that record "points" / "ms/point" metrics (the sweep-engine
// benchmarks do, via b.ReportMetric) get an indented metadata line with
// their point count and wall-clock cost per point.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/sortedmap"
)

// Bench is one benchmark's numbers within a run.
type Bench struct {
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Run is one labeled invocation of the benchmark suite.
type Run struct {
	Label string `json:"label"`
	CPU   string `json:"cpu,omitempty"`
	// GOMAXPROCS and Workers record the parallelism context of the run:
	// the Go scheduler's processor limit, and the simulator worker
	// setting the benchmarks used ("auto" = one shard per CPU).
	GOMAXPROCS int               `json:"gomaxprocs,omitempty"`
	Workers    string            `json:"workers,omitempty"`
	Bench      map[string]*Bench `json:"bench"`
}

// Ledger is the whole JSON file: runs in insertion order.
type Ledger struct {
	Runs []*Run `json:"runs"`
}

// regressionLimit is the ns/op increase `compare` tolerates before
// failing, as a fraction.
const regressionLimit = 0.05

// exitNotComparable is compare's exit status for entries recorded on
// different CPUs, distinct from a pass (0), a regression (1) and a
// usage or I/O error (2).
const exitNotComparable = 3

// benchLine matches "BenchmarkName[-procs] <iters> <value unit>..."
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(.*)$`)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	label := flag.String("label", "", "label for this run (required)")
	out := flag.String("out", "BENCH_netsim.json", "ledger file to update")
	workers := flag.String("workers", "auto", "simulator worker setting the benchmarks ran with")
	maxprocs := flag.Int("gomaxprocs", runtime.GOMAXPROCS(0), "GOMAXPROCS the benchmarks ran under")
	flag.Parse()
	if *label == "" {
		fmt.Fprintln(os.Stderr, "benchjson: -label is required")
		os.Exit(2)
	}
	run, err := parse(os.Stdin, *label)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if len(run.Bench) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	run.GOMAXPROCS = *maxprocs
	run.Workers = *workers
	if err := merge(*out, run); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("benchjson: recorded %d benchmarks under label %q in %s\n", len(run.Bench), *label, *out)
}

// compareMain implements `benchjson compare <labelA> <labelB>`: print
// per-benchmark deltas and return 1 if any shared benchmark's ns/op
// regressed more than regressionLimit, 2 on usage/IO errors, and
// exitNotComparable if the entries were recorded on different CPUs.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	out := fs.String("out", "BENCH_netsim.json", "ledger file to read")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchjson compare [-out ledger.json] <labelA> <labelB>")
		return 2
	}
	data, err := os.ReadFile(*out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		return 2
	}
	var ledger Ledger
	if err := json.Unmarshal(data, &ledger); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", *out, err)
		return 2
	}
	find := func(label string) *Run {
		for _, r := range ledger.Runs {
			if r.Label == label {
				return r
			}
		}
		return nil
	}
	a, b := find(fs.Arg(0)), find(fs.Arg(1))
	for i, r := range []*Run{a, b} {
		if r == nil {
			fmt.Fprintf(os.Stderr, "benchjson: label %q not in %s\n", fs.Arg(i), *out)
			return 2
		}
	}
	return compareRuns(os.Stdout, os.Stderr, a, b)
}

// printer renders gate output. Write errors are deliberately discarded:
// the exit code is the gate's contract, and the writers are stdout/stderr
// or a test buffer.
type printer struct{ w io.Writer }

func (p printer) f(format string, args ...any) { _, _ = fmt.Fprintf(p.w, format, args...) }
func (p printer) ln(args ...any)               { _, _ = fmt.Fprintln(p.w, args...) }

// compareRuns renders the per-benchmark delta table, the sweep metadata
// lines, and the geomean summary, and returns the gate's exit code. Split
// from compareMain so the output format is unit-testable.
func compareRuns(w, errw io.Writer, a, b *Run) int {
	out, eout := printer{w}, printer{errw}
	crossCPU := warnEnvMismatch(eout, a, b)
	// The suite's composition changes across PRs (benchmarks are added
	// and retired), so the gate judges only benchmarks present in both
	// runs; composition changes are reported explicitly instead of
	// being an error or silently folded into the table.
	var shared, removed []string
	for _, name := range sortedmap.Keys(a.Bench) {
		if b.Bench[name] != nil {
			shared = append(shared, name)
		} else {
			removed = append(removed, name)
		}
	}
	var added []string
	for _, name := range sortedmap.Keys(b.Bench) {
		if a.Bench[name] == nil {
			added = append(added, name)
		}
	}

	regressed := false
	logSpeedupSum, speedups := 0.0, 0
	if len(shared) > 0 {
		out.f("%-34s %14s %14s %9s %9s %9s\n",
			"benchmark", a.Label+" ns/op", b.Label+" ns/op", "speedup", "Δns/op", "Δallocs")
		for _, name := range shared {
			ba, bb := a.Bench[name], b.Bench[name]
			line := fmt.Sprintf("%-34s %14.0f %14.0f %8.2fx %8.1f%% %9s",
				strings.TrimPrefix(name, "Benchmark"),
				ba.NsPerOp, bb.NsPerOp,
				ba.NsPerOp/bb.NsPerOp,
				(bb.NsPerOp/ba.NsPerOp-1)*100,
				deltaPct(ba.AllocsPerOp, bb.AllocsPerOp))
			if !crossCPU && bb.NsPerOp > ba.NsPerOp*(1+regressionLimit) {
				line += "  REGRESSION"
				regressed = true
			}
			out.ln(line)
			if s := sweepDetail(ba, bb); s != "" {
				out.ln(s)
			}
			if ba.NsPerOp > 0 && bb.NsPerOp > 0 {
				logSpeedupSum += math.Log(ba.NsPerOp / bb.NsPerOp)
				speedups++
			}
		}
	}
	for _, name := range added {
		out.f("%-34s added in %s\n", strings.TrimPrefix(name, "Benchmark"), b.Label)
	}
	for _, name := range removed {
		out.f("%-34s removed since %s\n", strings.TrimPrefix(name, "Benchmark"), a.Label)
	}
	if len(shared) == 0 {
		out.f("benchjson: labels %q and %q share no benchmarks (%d added, %d removed); nothing to gate\n",
			a.Label, b.Label, len(added), len(removed))
		return 0
	}
	if speedups > 0 {
		// The geomean weights each benchmark's ratio equally regardless of
		// its absolute ns/op, so one slow sweep can't mask many fast-path
		// regressions (or vice versa).
		out.f("geomean speedup: %.2fx over %d shared benchmark(s)\n",
			math.Exp(logSpeedupSum/float64(speedups)), speedups)
	}
	if crossCPU {
		out.f("benchjson: NOT COMPARABLE: %q and %q were recorded on different CPUs; the ns/op gate is not applied\n",
			a.Label, b.Label)
		return exitNotComparable
	}
	if regressed {
		eout.f("benchjson: ns/op regression over %.0f%% between %q and %q\n",
			regressionLimit*100, a.Label, b.Label)
		return 1
	}
	return 0
}

// warnEnvMismatch prints a loud warning when the two runs were recorded
// under different hardware or parallelism (the ledger mixes entries
// from three CPUs): their wall-clock numbers are not comparable, and a
// cross-host "speedup" or "regression" is an artifact of the move, not
// of the code. It reports whether the CPUs differ, which takes the
// result out of the gate; a GOMAXPROCS difference alone only warns.
// Fields one side simply did not record (empty CPU, zero GOMAXPROCS in
// old entries) are not treated as mismatches.
func warnEnvMismatch(eout printer, a, b *Run) (crossCPU bool) {
	var lines []string
	crossCPU = a.CPU != "" && b.CPU != "" && a.CPU != b.CPU
	if crossCPU {
		lines = append(lines, fmt.Sprintf("cpu: %q vs %q", a.CPU, b.CPU))
	}
	if a.GOMAXPROCS != 0 && b.GOMAXPROCS != 0 && a.GOMAXPROCS != b.GOMAXPROCS {
		lines = append(lines, fmt.Sprintf("gomaxprocs: %d vs %d", a.GOMAXPROCS, b.GOMAXPROCS))
	}
	if len(lines) == 0 {
		return false
	}
	eout.f("benchjson: WARNING: %q and %q were recorded under different environments:\n", a.Label, b.Label)
	for _, l := range lines {
		eout.f("benchjson: WARNING:   %s\n", l)
	}
	eout.ln("benchjson: WARNING: wall-clock deltas between these entries are not meaningful")
	return crossCPU
}

// sweepDetail renders the wall-clock/point-count metadata that sweep
// benchmarks record via b.ReportMetric ("points", "ms/point"): one
// indented line per shared sweep benchmark, or "" for benchmarks without
// sweep metrics.
func sweepDetail(ba, bb *Bench) string {
	pts, ok := bb.Metrics["points"]
	if !ok {
		return ""
	}
	line := fmt.Sprintf("%-34s %11.0f pts", "  └ sweep", pts)
	if ms, ok := bb.Metrics["ms/point"]; ok {
		line += fmt.Sprintf("  %8.1f ms/point", ms)
		if prev, ok := ba.Metrics["ms/point"]; ok && prev > 0 {
			line += fmt.Sprintf(" (%s)", deltaPct(prev, ms))
		}
	}
	line += fmt.Sprintf("  wall %s/op", time.Duration(bb.NsPerOp).Round(time.Millisecond))
	return line
}

// deltaPct formats a relative change, or "-" when the baseline is zero
// (e.g. allocs were not recorded).
func deltaPct(from, to float64) string {
	//sornlint:ignore floateq -- zero means the field was absent from the bench output
	if from == 0 {
		return "-"
	}
	return fmt.Sprintf("%+.1f%%", (to/from-1)*100)
}

// parse reads `go test -bench` output and keeps, per benchmark, the
// repetition with the lowest ns/op.
func parse(r io.Reader, label string) (*Run, error) {
	run := &Run{Label: label, Bench: map[string]*Bench{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if cpu, ok := strings.CutPrefix(line, "cpu: "); ok {
			run.CPU = strings.TrimSpace(cpu)
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		b, err := parseFields(m[2])
		if err != nil {
			return nil, fmt.Errorf("line %q: %w", line, err)
		}
		if prev, ok := run.Bench[m[1]]; !ok || b.NsPerOp < prev.NsPerOp {
			run.Bench[m[1]] = b
		}
	}
	return run, sc.Err()
}

// parseFields decodes the "<value> <unit>" pairs after the iteration
// count: ns/op, B/op, allocs/op, and any custom metric units.
func parseFields(rest string) (*Bench, error) {
	f := strings.Fields(rest)
	if len(f)%2 != 0 {
		return nil, fmt.Errorf("odd value/unit fields %q", rest)
	}
	b := &Bench{}
	for i := 0; i < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return nil, fmt.Errorf("value %q: %w", f[i], err)
		}
		switch unit := f[i+1]; unit {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			b.BytesPerOp = v
		case "allocs/op":
			b.AllocsPerOp = v
		default:
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[unit] = v
		}
	}
	return b, nil
}

// merge loads the ledger (if any), replaces or appends the run by
// label, and writes the file back.
func merge(path string, run *Run) error {
	var ledger Ledger
	if data, err := os.ReadFile(path); err == nil {
		// A zero-length file (mktemp, touch) is an empty ledger.
		if len(data) > 0 {
			if err := json.Unmarshal(data, &ledger); err != nil {
				return fmt.Errorf("existing %s: %w", path, err)
			}
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	replaced := false
	for i, r := range ledger.Runs {
		if r.Label == run.Label {
			ledger.Runs[i] = run
			replaced = true
			break
		}
	}
	if !replaced {
		ledger.Runs = append(ledger.Runs, run)
	}
	data, err := json.MarshalIndent(&ledger, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
