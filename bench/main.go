// Command bench is the repository's benchmark. It runs four workloads
// through the experiments entry points the CLIs call and reports host
// time, memory and failures, checking the simulated results; a traced
// run drives the same workloads through this package's drivers and
// splits them into layers. Build and run it with bench/run.sh from the
// repository root:
//
//	bash bench/run.sh --workload fig2f-sat --seed 42 --seconds 30 --trace 0
//	bash bench/run.sh                         # every workload, untraced then traced
//	bash bench/run.sh aa -runs 5              # two interleaved sets of the same code
//	bash bench/run.sh compare A.jsonl B.jsonl # medians, quartiles and verdicts
//
// The last line of a single-workload run is its result as one JSON
// object. See README.md for the workloads, metrics and bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

func main() {
	var err error
	switch {
	case len(os.Args) > 1 && os.Args[1] == "compare":
		err = compareMain(os.Args[2:])
	case len(os.Args) > 1 && os.Args[1] == "aa":
		err = aaMain(os.Args[2:])
	default:
		err = runMain(os.Args[1:])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// buildDir is where runs write traces and A/A sets.
func buildDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

func runMain(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Uint64("seed", 42, "seed every workload input is drawn from")
	seconds := fs.Int("seconds", 30, "how long one run measures")
	trace := fs.Int("trace", -1, "1 for a traced run (per-layer metrics), 0 for an end-to-end run; all workloads default to both")
	spans := fs.String("spans", "", "traced runs: span JSONL path (default <build dir>/trace/<workload>-seed<seed>.jsonl)")
	out := fs.String("out", "", "append each run's record to this JSONL file")
	specPath := fs.String("benchmark", "BENCHMARK.json", "benchmark definition")
	rep := fs.Int("rep", 0, "internal: measure rep N of the workload in this process")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *rep > 0 {
		return repMain(*workload, *seed, *trace == 1, *rep, *spans)
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		return err
	}
	if n := runtime.NumCPU(); n < 2 {
		fmt.Fprintf(os.Stderr, "bench: warning: %d CPU; the garbage collector will share the workload's processor and numbers will not match two-core hosts\n", n)
	}
	names := []string{*workload}
	if *workload == "all" {
		names = names[:0]
		for _, w := range spec.Workloads {
			names = append(names, w.Name)
		}
	}
	traces := []bool{*trace == 1}
	if *trace < 0 {
		traces = []bool{false, true}
		if *workload != "all" {
			traces = traces[:1]
		}
	}
	var last record
	for _, name := range names {
		for _, tr := range traces {
			sp := ""
			if tr {
				sp = *spans
				if sp == "" {
					sp = filepath.Join(buildDir(), "trace", fmt.Sprintf("%s-seed%d.jsonl", name, *seed))
				}
			}
			r, err := runWorkload(spec, name, *seed, *seconds, tr, sp)
			if err != nil {
				return err
			}
			printRecord(spec, r, sp)
			if *out != "" {
				if err := appendRecord(*out, r); err != nil {
					return err
				}
			}
			last = r
		}
	}
	if len(names) == 1 && len(traces) == 1 {
		line, err := resultLine(last)
		if err != nil {
			return err
		}
		fmt.Println(line)
	}
	return nil
}

// printRecord prints a run's metrics, one per line, with units.
func printRecord(spec *benchSpec, r record, spans string) {
	status := "correct"
	if !r.Correct {
		status = fmt.Sprintf("FAILED %d of %d runs", r.Failed, r.Attempted)
		for _, f := range r.Failures {
			fmt.Fprintln(os.Stderr, "bench:", r.Workload+":", f)
		}
	}
	kind := "end-to-end"
	if r.Trace {
		kind = "traced"
	}
	fmt.Printf("%s seed %d %s: %s, %d runs in %d reps (one process each), nproc %d, GOMAXPROCS 2, sim_digest %s",
		r.Workload, r.Seed, kind, status, r.Attempted, r.Reps, r.NProc, r.Digest)
	if r.Gap > 0 {
		fmt.Printf(", sim_fluid_gap %.4f", r.Gap)
	}
	fmt.Println()
	for _, m := range spec.metrics(r.Trace) {
		fmt.Printf("  %-26s %14.6g %s\n", m.Name, r.Metrics[m.Name].Value, m.Unit)
	}
	if spans != "" {
		fmt.Printf("  spans: %s\n", spans)
	}
}

// resultLine is the run's result as the benchmark's last output line.
func resultLine(r record) (string, error) {
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	return string(b), err
}

func compareMain(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("benchmark", "BENCHMARK.json", "benchmark definition")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: compare [-benchmark BENCHMARK.json] A.jsonl B.jsonl")
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		return err
	}
	a, err := readRecords(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := readRecords(fs.Arg(1))
	if err != nil {
		return err
	}
	return report(spec, a, b)
}

func report(spec *benchSpec, a, b []record) error {
	var sb strings.Builder
	bad := compare(&sb, spec, a, b)
	fmt.Print(sb.String())
	if bad {
		return fmt.Errorf("a metric got worse, a run failed, or sim_digest changed")
	}
	return nil
}

// aaMain runs two sets of the same code, interleaved run by run and
// alternating which set goes first, and compares them: the spreads it
// prints are what the bounds in BENCHMARK.json are sized from.
func aaMain(args []string) error {
	fs := flag.NewFlagSet("aa", flag.ContinueOnError)
	runs := fs.Int("runs", 5, "runs per set and workload")
	seed := fs.Uint64("seed", 42, "seed of every run")
	seconds := fs.Int("seconds", 30, "how long one run measures")
	workload := fs.String("workload", "all", "workload to run, or all")
	dir := fs.String("dir", filepath.Join(buildDir(), "aa"), "where the two sets are written")
	specPath := fs.String("benchmark", "BENCHMARK.json", "benchmark definition")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		return err
	}
	names := []string{*workload}
	if *workload == "all" {
		names = names[:0]
		for _, w := range spec.Workloads {
			names = append(names, w.Name)
		}
	}
	paths := [2]string{filepath.Join(*dir, "A.jsonl"), filepath.Join(*dir, "B.jsonl")}
	for _, p := range paths {
		if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	for i := 0; i < *runs; i++ {
		for _, name := range names {
			for k := 0; k < 2; k++ {
				set := (i + k) % 2
				r, err := runWorkload(spec, name, *seed, *seconds, false, "")
				if err != nil {
					return err
				}
				fmt.Printf("set %c run %d: %s wall_s %.4f\n", 'A'+set, i+1, name, r.Metrics["wall_s"].Value)
				if err := appendRecord(paths[set], r); err != nil {
					return err
				}
			}
		}
	}
	a, err := readRecords(paths[0])
	if err != nil {
		return err
	}
	b, err := readRecords(paths[1])
	if err != nil {
		return err
	}
	return report(spec, a, b)
}
