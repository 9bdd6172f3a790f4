// Command repro regenerates the paper's evaluation — the schedule
// figures, Table 1, Figure 2(f) and the ablations of DESIGN.md — from
// experiments.Registry. Each experiment returns a title, one table and
// optional note lines, printed as an aligned table or, with -csv, as CSV:
//
//	repro -exp fig2d                   Figure 2(d): topology A's schedule
//	repro -exp table1                  Table 1: latency/throughput at 4096 racks
//	repro -exp fig2f                   Figure 2(f): throughput vs locality
//	repro -exp mismatch                A1: locality estimate x̂ ≠ actual x
//	repro -exp all                     every experiment, in registry order
//	repro -exp fig2f -trace f.jsonl -metrics f.csv
//
// -n, -nc and -seed default to 0, meaning the experiment's own default,
// so a bare -exp X prints the experiment as the paper sizes it. An
// experiment rejects each of them it does not read (-n for one of fixed
// size, -nc for one without cliques, -seed for one that draws nothing at
// random); -exp all passes each only to the experiments that read it.
// Results are bit-identical for every -sweepworkers value.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "repro:", err)
		os.Exit(1)
	}
}

// run parses args, runs the selected experiments and writes their
// reports to stdout, then any -trace/-metrics capture.
func run(args []string, stdout io.Writer) error {
	names := make([]string, len(experiments.Registry))
	for i, e := range experiments.Registry {
		names[i] = e.Name
	}
	fs := flag.NewFlagSet("repro", flag.ContinueOnError)
	exp := fs.String("exp", "", "experiment: "+strings.Join(names, ", ")+", or all")
	c := experiments.DefaultRunContext()
	fs.IntVar(&c.N, "n", 0, "nodes (0 = the experiment's default: table1 4096, fig2f 128, ablations 64; the schedule figures, ncsweep, sync, state and phys have fixed sizes and reject it)")
	fs.IntVar(&c.Nc, "nc", 0, "cliques (0 = the experiment's default: fig2f and ablations 8; table1, ncsweep, sync, state, phys and the schedule figures reject it)")
	fs.Uint64Var(&c.Seed, "seed", 0, "simulation seed (0 = the experiment's default: fig2f 42, adapt, latency, planes and fct 11; the experiments without randomness reject it)")
	fs.IntVar(&c.SweepWorkers, "sweepworkers", 0, "concurrent sweep points (0 = one per CPU, 1 = serial); results are bit-identical for every value")
	csv := fs.Bool("csv", false, "emit CSV instead of an aligned table")
	tracePath := fs.String("trace", "", "write the event trace as JSONL to this file (fig2f, adapt, diurnal, fct); fig2f then runs its sweep serially")
	metricsPath := fs.String("metrics", "", "write the slot-resolved metric series as CSV to this file (fig2f, adapt, fct)")
	metricsEvery := fs.Int64("metricsevery", 64, "series snapshot cadence in slots")

	fs.Float64Var(&c.Fig2f.Step, "step", c.Fig2f.Step, "fig2f: locality ratio sweep step")
	fs.BoolVar(&c.Fig2f.RunSim, "sim", c.Fig2f.RunSim, "fig2f: run the packet-level simulation series")
	fs.Int64Var(&c.Fig2f.WarmupSlots, "warmup", c.Fig2f.WarmupSlots, "fig2f: simulation warmup slots")
	fs.Int64Var(&c.Fig2f.MeasureSlots, "measure", c.Fig2f.MeasureSlots, "fig2f: simulation measurement slots")
	fs.Int64Var(&c.Fig2f.Backlog, "backlog", c.Fig2f.Backlog, "fig2f: fresh-cell saturation target per node")
	fs.IntVar(&c.Fig2f.SizeCap, "cap", c.Fig2f.SizeCap, "fig2f: flow size cap in cells (p95 of web search; bounds transient)")

	fs.IntVar(&c.Table1.Uplinks, "uplinks", c.Table1.Uplinks, "table1: uplinks per rack")
	fs.Float64Var(&c.Table1.SlotNS, "slot", c.Table1.SlotNS, "table1: slot duration (ns)")
	fs.Float64Var(&c.Table1.PropNS, "prop", c.Table1.PropNS, "table1: per-hop propagation delay (ns)")
	fs.Float64Var(&c.Table1.X, "x", c.Table1.X, "table1: locality ratio (intra-clique demand fraction)")
	fs.BoolVar(&c.Table1.TextFormula, "text-formula", false,
		"table1: use the paper text's inter-clique δm formula (q+1)(Nc−1)+... instead of the variant matching the printed table")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var selected []experiments.Experiment
	for _, e := range experiments.Registry {
		if *exp == "all" || *exp == e.Name {
			selected = append(selected, e)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown experiment %q (want %s, or all)", *exp, strings.Join(names, ", "))
	}
	if *tracePath != "" || *metricsPath != "" {
		// Flow lifecycle events are only worth their cost when the trace
		// is actually being written. One observer serves every experiment
		// that runs; its rows are labeled per run, so they stay separable.
		c.Obs = obs.New(obs.Options{MetricsEvery: *metricsEvery, TraceFlows: *tracePath != ""})
	}

	for _, e := range selected {
		ec := c
		if *exp == "all" {
			// Each entry gets only the flags it reads.
			n, nc, seed := e.Reads()
			if !n {
				ec.N = 0
			}
			if !nc {
				ec.Nc = 0
			}
			if !seed {
				ec.Seed = 0
			}
		}
		r, err := e.Run(ec)
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		var out strings.Builder
		out.WriteString(r.Title + "\n")
		if *csv {
			out.WriteString(r.Table.CSV())
		} else {
			out.WriteString(r.Table.String())
		}
		for _, note := range r.Notes {
			out.WriteString(note + "\n")
		}
		if len(selected) > 1 {
			out.WriteString("\n")
		}
		if _, err := io.WriteString(stdout, out.String()); err != nil {
			return err
		}
	}
	return obs.WriteFiles(c.Obs, *tracePath, *metricsPath, os.Stderr)
}
