// Command repro regenerates the paper's evaluation — Table 1, Figure 2(f)
// and the ablations of DESIGN.md — through one registry of experiments.
// Each experiment returns a title, one table and optional note lines,
// printed as an aligned table or, with -csv, as CSV:
//
//	repro -exp table1                  Table 1: latency/throughput at 4096 racks
//	repro -exp fig2f                   Figure 2(f): throughput vs locality
//	repro -exp mismatch                A1: locality estimate x̂ ≠ actual x
//	repro -exp all                     every experiment, in registry order
//	repro -exp fig2f -trace f.jsonl -metrics f.csv
//
// -n, -nc and -seed default to 0, meaning the experiment's own default,
// so a bare -exp X prints the experiment as the paper sizes it. Results
// are bit-identical for every -workers and -sweepworkers value.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/phys"
	"repro/internal/stats"
)

// runContext carries the flags every experiment shares, plus the flags
// that only fig2f or only table1 reads.
type runContext struct {
	N, Nc        int
	Seed         uint64
	Workers      int
	SweepWorkers int
	Obs          *obs.Observer

	Fig2f  experiments.Fig2fConfig // -step -sim -warmup -measure -backlog -cap
	Table1 table1Options
}

// table1Options are the flags only table1 reads; Params.N comes from -n.
type table1Options struct {
	model.Params
	X           float64
	TextFormula bool
}

// report is what every experiment returns: a title line, one table and
// note lines printed under it.
type report struct {
	title string
	table stats.Table
	notes []string
}

// experiment is one registry entry. n, nc and seed are the defaults the
// run context takes when its flag is left at 0.
type experiment struct {
	name  string
	n, nc int
	seed  uint64
	run   func(runContext) (*report, error)
}

// ablation is a registry entry at the ablations' shared defaults.
func ablation(name string, run func(runContext) (*report, error)) experiment {
	return experiment{name: name, n: 64, nc: 8, seed: 11, run: run}
}

// registry lists every experiment in the order -exp all runs them.
var registry = []experiment{
	{name: "table1", n: 4096, run: table1},
	{name: "fig2f", n: 128, nc: 8, seed: 42, run: fig2f},
	ablation("mismatch", mismatch),
	ablation("qsweep", qsweep),
	ablation("ncsweep", ncsweep),
	ablation("blast", blast),
	ablation("adapt", adapt),
	ablation("gravity", gravity),
	ablation("pairs", pairs),
	ablation("latency", latency),
	ablation("planes", planes),
	ablation("sync", syncOverhead),
	ablation("state", state),
	ablation("diurnal", diurnal),
	ablation("phys", physFeasibility),
	ablation("fct", fct),
}

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
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.name
	}
	fs := flag.NewFlagSet("repro", flag.ContinueOnError)
	exp := fs.String("exp", "", "experiment: "+strings.Join(names, ", ")+", or all")
	var c runContext
	fs.IntVar(&c.N, "n", 0, "nodes (0 = the experiment's default: table1 4096, fig2f 128, ablations 64)")
	fs.IntVar(&c.Nc, "nc", 0, "cliques (0 = the experiment's default: fig2f and ablations 8)")
	fs.Uint64Var(&c.Seed, "seed", 0, "simulation seed (0 = the experiment's default: fig2f 42, ablations 11)")
	fs.IntVar(&c.Workers, "workers", 0, "step-shard goroutines per simulation (0 = one per CPU, 1 = serial); results are bit-identical for every value")
	fs.IntVar(&c.SweepWorkers, "sweepworkers", 0, "concurrent sweep points (0 = one per CPU, 1 = serial); results are bit-identical for every value")
	csv := fs.Bool("csv", false, "emit CSV instead of an aligned table")
	tracePath := fs.String("trace", "", "write the event trace as JSONL to this file (fig2f, adapt, diurnal, fct); fig2f then runs its sweep serially")
	metricsPath := fs.String("metrics", "", "write the slot-resolved metric series as CSV to this file (fig2f, adapt, fct)")
	metricsEvery := fs.Int64("metricsevery", 64, "series snapshot cadence in slots")

	c.Fig2f = experiments.DefaultFig2fConfig()
	fs.Float64Var(&c.Fig2f.Step, "step", c.Fig2f.Step, "fig2f: locality ratio sweep step")
	fs.BoolVar(&c.Fig2f.RunSim, "sim", c.Fig2f.RunSim, "fig2f: run the packet-level simulation series")
	fs.Int64Var(&c.Fig2f.WarmupSlots, "warmup", c.Fig2f.WarmupSlots, "fig2f: simulation warmup slots")
	fs.Int64Var(&c.Fig2f.MeasureSlots, "measure", c.Fig2f.MeasureSlots, "fig2f: simulation measurement slots")
	fs.Int64Var(&c.Fig2f.Backlog, "backlog", c.Fig2f.Backlog, "fig2f: fresh-cell saturation target per node")
	fs.IntVar(&c.Fig2f.SizeCap, "cap", c.Fig2f.SizeCap, "fig2f: flow size cap in cells (p95 of web search; bounds transient)")

	c.Table1 = table1Options{Params: model.Table1Params(), X: 0.56}
	fs.IntVar(&c.Table1.Uplinks, "uplinks", c.Table1.Uplinks, "table1: uplinks per rack")
	fs.Float64Var(&c.Table1.SlotNS, "slot", c.Table1.SlotNS, "table1: slot duration (ns)")
	fs.Float64Var(&c.Table1.PropNS, "prop", c.Table1.PropNS, "table1: per-hop propagation delay (ns)")
	fs.Float64Var(&c.Table1.X, "x", c.Table1.X, "table1: locality ratio (intra-clique demand fraction)")
	fs.BoolVar(&c.Table1.TextFormula, "text-formula", false,
		"table1: use the paper text's inter-clique δm formula (q+1)(Nc−1)+... instead of the variant matching the printed table")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var selected []experiment
	for _, e := range registry {
		if *exp == "all" || *exp == e.name {
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
		if ec.N == 0 {
			ec.N = e.n
		}
		if ec.Nc == 0 {
			ec.Nc = e.nc
		}
		if ec.Seed == 0 {
			ec.Seed = e.seed
		}
		r, err := e.run(ec)
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		var out strings.Builder
		out.WriteString(r.title + "\n")
		if *csv {
			out.WriteString(r.table.CSV())
		} else {
			out.WriteString(r.table.String())
		}
		for _, note := range r.notes {
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

func table1(c runContext) (*report, error) {
	p, x := c.Table1.Params, c.Table1.X
	p.N = c.N
	rows, err := model.Table1(p, x, !c.Table1.TextFormula)
	if err != nil {
		return nil, err
	}
	r := &report{title: fmt.Sprintf("Table 1 — %d racks, %d uplinks, %.0f ns slots, %.0f ns/hop propagation, x=%.2f\n",
		p.N, p.Uplinks, p.SlotNS, p.PropNS, x)}
	r.table.SetHeader("System", "Variant", "Max hops", "δm", "Min latency (µs)", "Thpt.", "Norm. BW cost")
	for _, row := range rows {
		r.table.AddRow(
			row.System,
			row.Variant,
			fmt.Sprint(row.MaxHops),
			fmt.Sprint(row.DeltaMSlots()),
			fmt.Sprintf("%.2f", row.MinLatencyMicros()),
			fmt.Sprintf("%.2f%%", row.Throughput*100),
			fmt.Sprintf("%.2fx", row.BWCost),
		)
	}
	return r, nil
}

func fig2f(c runContext) (*report, error) {
	cfg := c.Fig2f
	cfg.N, cfg.Nc, cfg.Seed = c.N, c.Nc, c.Seed
	cfg.Workers, cfg.SweepWorkers, cfg.Obs = c.Workers, c.SweepWorkers, c.Obs
	pts, err := experiments.Fig2f(cfg)
	if err != nil {
		return nil, err
	}
	r := &report{title: fmt.Sprintf("Figure 2(f) — SORN worst-case throughput vs locality ratio (N=%d, Nc=%d)\n", cfg.N, cfg.Nc)}
	r.table.SetHeader("x", "theory r=1/(3-x)", "fluid θ", "sim r (pFabric)", "1D ORN", "2D ORN")
	for _, p := range pts {
		simCell := "-"
		if cfg.RunSim {
			simCell = fmt.Sprintf("%.4f", p.Sim)
		}
		r.table.AddRow(
			fmt.Sprintf("%.2f", p.X),
			fmt.Sprintf("%.4f", p.Theory),
			fmt.Sprintf("%.4f", p.Fluid),
			simCell,
			"0.5000",
			"0.2500",
		)
	}
	return r, nil
}

func mismatch(c runContext) (*report, error) {
	pts, err := experiments.LocalityMismatch(c.N, c.Nc, []float64{0.2, 0.5, 0.8}, []float64{0.1, 0.3, 0.5, 0.7, 0.9}, c.SweepWorkers)
	if err != nil {
		return nil, err
	}
	r := &report{title: "A1 — locality estimation error margin (schedule built for x̂, traffic has x):"}
	r.table.SetHeader("x̂ planned", "x actual", "model r", "fluid θ", "vs clairvoyant")
	for _, p := range pts {
		r.table.AddRow(
			fmt.Sprintf("%.1f", p.XPlanned),
			fmt.Sprintf("%.1f", p.XActual),
			fmt.Sprintf("%.4f", p.Model),
			fmt.Sprintf("%.4f", p.Fluid),
			fmt.Sprintf("%.0f%%", 100*p.Fluid/model.SORNThroughput(p.XActual)),
		)
	}
	return r, nil
}

func qsweep(c runContext) (*report, error) {
	const x = 0.56
	pts, err := experiments.QSweep(c.N, c.Nc, x, []float64{1, 2, 3, 4, model.SORNQ(x), 6, 8, 12, 16}, c.SweepWorkers)
	if err != nil {
		return nil, err
	}
	r := &report{title: fmt.Sprintf("A2 — throughput vs oversubscription q at x=%.2f (q* = %.2f):", x, model.SORNQ(x))}
	r.table.SetHeader("q (realized)", "model r", "fluid θ")
	for _, p := range pts {
		r.table.AddRow(fmt.Sprintf("%.2f", p.Q), fmt.Sprintf("%.4f", p.Model), fmt.Sprintf("%.4f", p.Fluid))
	}
	return r, nil
}

func ncsweep(c runContext) (*report, error) {
	p := model.Table1Params()
	rows, err := experiments.NcSweep(p, 0.56, []int{8, 16, 32, 64, 128, 256, 512}, 256, c.SweepWorkers)
	if err != nil {
		return nil, err
	}
	r := &report{title: fmt.Sprintf("A3 — latency split vs clique count (N=%d, x=0.56):", p.N)}
	r.table.SetHeader("Nc", "intra δm", "inter δm", "intra lat (µs)", "inter lat (µs)", "built wait@256", "formula@256")
	for _, row := range rows {
		r.table.AddRow(
			fmt.Sprint(row.Nc),
			fmt.Sprint(row.IntraDM),
			fmt.Sprint(row.InterDM),
			fmt.Sprintf("%.2f", row.IntraLatNS/1000),
			fmt.Sprintf("%.2f", row.InterLatNS/1000),
			fmt.Sprint(row.MeasuredIntraWait),
			fmt.Sprint(row.TheoreticIntraWait),
		)
	}
	return r, nil
}

func blast(c runContext) (*report, error) {
	rows, err := experiments.BlastRadius(c.N, c.Nc, 3, c.SweepWorkers)
	if err != nil {
		return nil, err
	}
	r := &report{title: fmt.Sprintf("A4 — failure blast radius (fraction of src-dst pairs affected), N=%d:", c.N)}
	r.table.SetHeader("Design", "node failure", "intra-link failure", "inter-link failure")
	for _, row := range rows {
		r.table.AddRow(
			row.Design,
			fmt.Sprintf("%.4f", row.NodeBlast),
			fmt.Sprintf("%.4f", row.IntraLink),
			fmt.Sprintf("%.4f", row.InterLink),
		)
	}
	return r, nil
}

func adapt(c runContext) (*report, error) {
	phases, err := experiments.Adaptation(experiments.AdaptationConfig{
		N: c.N, Nc: c.Nc, X1: 0.2, X2: 0.8, PhaseSlots: 8000, Seed: c.Seed, Workers: c.Workers, Obs: c.Obs,
	})
	if err != nil {
		return nil, err
	}
	r := &report{title: fmt.Sprintf("A5 — semi-oblivious adaptation after a workload shift (N=%d, packet sim):", c.N)}
	r.table.SetHeader("Phase", "offered locality", "q in force", "measured r")
	for _, p := range phases {
		r.table.AddRow(p.Name, fmt.Sprintf("%.1f", p.Locality), fmt.Sprintf("%.2f", p.Q), fmt.Sprintf("%.4f", p.Throughput))
	}
	return r, nil
}

func gravity(c runContext) (*report, error) {
	if c.Nc < 3 {
		return nil, fmt.Errorf("gravity needs at least 3 cliques for its 4:2:2:1... masses, got -nc %d", c.Nc)
	}
	mass := make([]float64, c.Nc)
	for i := range mass {
		mass[i] = 1
	}
	mass[0], mass[1], mass[2] = 4, 2, 2
	pts, err := experiments.Gravity(c.N, c.Nc, mass, []float64{1, 2, 3, 4, 6, 8}, c.SweepWorkers)
	if err != nil {
		return nil, err
	}
	r := &report{
		title: fmt.Sprintf("A6 — gravity-skewed aggregate demand (masses 4:2:2:1...), N=%d:", c.N),
		notes: []string{
			"(gravity's hot *receiver* cannot be helped by rebalancing circuits: every",
			" schedule is doubly stochastic — §5 notes gravity needs port heterogeneity)",
		},
	}
	r.table.SetHeader("q (realized)", "fluid θ under gravity TM")
	for _, p := range pts {
		r.table.AddRow(fmt.Sprintf("%.2f", p.Q), fmt.Sprintf("%.4f", p.Theta))
	}
	return r, nil
}

func pairs(c runContext) (*report, error) {
	rows, err := experiments.Expressivity(c.N, c.Nc, 3, 0.2, 0.6)
	if err != nil {
		return nil, err
	}
	r := &report{
		title: fmt.Sprintf("A7 — §5 expressivity: partnered cliques (60%% of demand to the partner), N=%d:", c.N),
		notes: []string{"(the BvN demand-aware schedule concentrates inter slots on partner cliques)"},
	}
	r.table.SetHeader("Inter-clique schedule", "fluid θ", "mean hops")
	for _, row := range rows {
		r.table.AddRow(row.Design, fmt.Sprintf("%.4f", row.Theta), fmt.Sprintf("%.2f", row.MeanHops))
	}
	return r, nil
}

func latency(c runContext) (*report, error) {
	// Larger N separates the designs' cycle times more clearly; 256 is a
	// perfect square (needed by the 2D ORN) and still simulates quickly.
	n := max(c.N, 256)
	rows, err := experiments.LatencyComparison(n, c.Nc, 1, 0.05, c.Seed, c.SweepWorkers)
	if err != nil {
		return nil, err
	}
	r := &report{
		title: fmt.Sprintf("L1 — packet-level latency at 5%% load (N=%d, 100 ns slots, 500 ns/hop, 1 uplink):", n),
		notes: []string{"(Table 1's ordering, measured: SORN intra < 2D ORN < SORN inter < 1D ORN)"},
	}
	r.table.SetHeader("Design", "Class", "p50 (µs)", "p99 (µs)", "mean hops")
	for _, row := range rows {
		r.table.AddRow(row.Design, row.Class,
			fmt.Sprintf("%.2f", row.P50us), fmt.Sprintf("%.2f", row.P99us),
			fmt.Sprintf("%.2f", row.MeanHops))
	}
	return r, nil
}

func planes(c runContext) (*report, error) {
	pts, err := experiments.PlaneSweep(experiments.PlaneSweepConfig{
		N: c.N, Nc: c.Nc, X: 0.56, Planes: []int{1, 2, 4, 8, 16}, Load: 0.05, Seed: c.Seed,
		Workers: c.Workers, SweepWorkers: c.SweepWorkers,
	})
	if err != nil {
		return nil, err
	}
	r := &report{title: fmt.Sprintf("U1 — uplink planes divide the schedule wait (N=%d, 5%% load, SORN x=0.56):", c.N)}
	r.table.SetHeader("uplinks", "p50 (µs)", "p99 (µs)")
	for _, p := range pts {
		r.table.AddRow(fmt.Sprint(p.Planes), fmt.Sprintf("%.2f", p.P50us), fmt.Sprintf("%.2f", p.P99us))
	}
	return r, nil
}

func syncOverhead(runContext) (*report, error) {
	r := &report{
		title: "S1 — §6 sync overhead: per-slot guard vs domain size (N=4096, Nc=64, 4 ns/level):",
		notes: []string{
			"(shorter slots magnify SORN's smaller sync domains; its effective",
			" throughput overtakes the flat design despite the lower worst-case r)",
		},
	}
	r.table.SetHeader("slot (ns)", "SORN slot eff.", "flat slot eff.", "SORN eff. thpt", "flat eff. thpt")
	for _, row := range experiments.SyncOverhead(4096, 64, 0.56, 4, []float64{1000, 200, 100, 80, 60, 50}) {
		r.table.AddRow(
			fmt.Sprintf("%.0f", row.SlotNS),
			fmt.Sprintf("%.3f", row.SORNEff),
			fmt.Sprintf("%.3f", row.FlatEff),
			fmt.Sprintf("%.4f", row.SORNThpt),
			fmt.Sprintf("%.4f", row.FlatThpt),
		)
	}
	return r, nil
}

func state(runContext) (*report, error) {
	rows, err := experiments.StateScaling([]int{256, 512, 1024, 2048, 4096}, 0.56)
	if err != nil {
		return nil, err
	}
	r := &report{title: "S2 — §5 NIC state per node (Figure 2c: tx wavelength per slot + queue per neighbor):"}
	r.table.SetHeader("N", "SORN period", "SORN state (B)", "1D ORN period", "1D ORN state (B)")
	for _, row := range rows {
		r.table.AddRow(fmt.Sprint(row.N), fmt.Sprint(row.SORNPeriod), fmt.Sprint(row.SORNStateBytes),
			fmt.Sprint(row.FlatPeriod), fmt.Sprint(row.FlatStateBytes))
	}
	return r, nil
}

func diurnal(c runContext) (*report, error) {
	pts, err := experiments.Diurnal(experiments.DiurnalConfig{
		N: c.N, Nc: c.Nc, Lo: 0.2, Hi: 0.8, Period: 12, Epochs: 36, SweepWorkers: c.SweepWorkers, Obs: c.Obs,
	})
	if err != nil {
		return nil, err
	}
	a, s, cl := experiments.DiurnalSummary(pts)
	r := &report{
		title: fmt.Sprintf("A8 — diurnal locality cycle 0.2..0.8 over 12-epoch periods (N=%d):", c.N),
		notes: []string{fmt.Sprintf("mean throughput: adaptive %.4f, static %.4f, clairvoyant %.4f", a, s, cl)},
	}
	r.table.SetHeader("epoch", "true x", "est. x", "adaptive θ", "static θ", "clairvoyant θ")
	for _, p := range pts {
		if p.Epoch%3 != 0 {
			continue // print every 3rd epoch
		}
		r.table.AddRow(fmt.Sprint(p.Epoch),
			fmt.Sprintf("%.2f", p.TrueX), fmt.Sprintf("%.2f", p.EstimateX),
			fmt.Sprintf("%.4f", p.AdaptiveR), fmt.Sprintf("%.4f", p.StaticR),
			fmt.Sprintf("%.4f", p.ClairvoyR))
	}
	return r, nil
}

func physFeasibility(runContext) (*report, error) {
	const n, ports, g = 4096, 16, 256
	r := &report{
		title: fmt.Sprintf("P1 — §5 physical feasibility: clique sizes on %d nodes, %d ports/node, %d-port gratings:", n, ports, g),
		notes: []string{
			"(the paper's \"16, 32, 64 up to 2048\": k=2048 consumes the 16-port budget",
			" exactly; a flat all-pairs fabric would need 31 ports per node)",
		},
	}
	r.table.SetHeader("clique size", "ports needed", "fits 16-port budget")
	for k := 1; k <= n; k *= 2 {
		need, err := phys.PortsForCliqueSize(n, g, k)
		if err != nil {
			continue
		}
		fits := "yes"
		if need > ports {
			fits = "NO"
		}
		r.table.AddRow(fmt.Sprint(k), fmt.Sprint(need), fits)
	}
	return r, nil
}

func fct(c runContext) (*report, error) {
	pts, err := experiments.FCTvsLoad(experiments.FCTConfig{
		N: c.N, Nc: c.Nc, X: 0.56, Loads: []float64{0.1, 0.2, 0.3, 0.4}, Slots: 25000, Seed: c.Seed,
		Workers: c.Workers, SweepWorkers: c.SweepWorkers, Obs: c.Obs,
	})
	if err != nil {
		return nil, err
	}
	r := &report{title: fmt.Sprintf("F1 — short-flow (16-cell) FCT vs offered load (N=%d, x=0.56):", c.N)}
	r.table.SetHeader("Design", "load", "FCT p50 (µs)", "FCT p99 (µs)", "flows done")
	for _, p := range pts {
		r.table.AddRow(p.Design, fmt.Sprintf("%.2f", p.Load),
			fmt.Sprintf("%.1f", p.P50us), fmt.Sprintf("%.1f", p.P99us),
			fmt.Sprint(p.Done))
	}
	return r, nil
}
