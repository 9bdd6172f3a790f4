// Command fig2f regenerates the paper's Figure 2(f): worst-case
// throughput of the semi-oblivious design as a function of the traffic
// locality ratio x, with three series:
//
//	theory — the closed form r = 1/(3−x) at the optimal q* = 2/(1−x)
//	fluid  — exact link-load analysis of the real schedule + router
//	sim    — a saturated 128-node / 8-clique packet simulation with
//	         pFabric web-search traffic (the paper's "simulation of 128
//	         nodes and 8 cliques using real-world traffic")
//
// Reference lines: 1D ORN (50%) and 2D ORN (25%). Points run on the
// bounded sweep engine (-sweepworkers); results are bit-identical for
// every concurrency setting and deterministic for a given seed.
//
// Usage:
//
//	fig2f [-n 128] [-nc 8] [-step 0.1] [-sim] [-measure 25000] [-sweepworkers 0] [-csv]
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
	"repro/internal/stats"
)

func main() {
	cfg := experiments.DefaultFig2fConfig()
	flag.IntVar(&cfg.N, "n", cfg.N, "number of nodes")
	flag.IntVar(&cfg.Nc, "nc", cfg.Nc, "number of cliques")
	flag.Float64Var(&cfg.Step, "step", cfg.Step, "locality ratio sweep step")
	flag.BoolVar(&cfg.RunSim, "sim", cfg.RunSim, "run the packet-level simulation series")
	flag.Int64Var(&cfg.MeasureSlots, "measure", cfg.MeasureSlots, "simulation measurement slots")
	flag.Int64Var(&cfg.WarmupSlots, "warmup", cfg.WarmupSlots, "simulation warmup slots")
	flag.Int64Var(&cfg.Backlog, "backlog", cfg.Backlog, "fresh-cell saturation target per node")
	flag.IntVar(&cfg.SizeCap, "cap", cfg.SizeCap, "flow size cap in cells (p95 of web search; bounds transient)")
	flag.Uint64Var(&cfg.Seed, "seed", cfg.Seed, "simulation seed")
	flag.IntVar(&cfg.Workers, "workers", cfg.Workers, "step-shard goroutines per simulation (0 = one per CPU, 1 = serial; results identical)")
	flag.IntVar(&cfg.SweepWorkers, "sweepworkers", cfg.SweepWorkers, "concurrent sweep points (0 = one per CPU, 1 = serial; results identical)")
	csvOut := flag.Bool("csv", false, "emit CSV instead of an aligned table")
	tracePath := flag.String("trace", "", "write each simulated point's event trace as JSONL to this file")
	metricsPath := flag.String("metrics", "", "write each simulated point's slot-resolved metric series as CSV to this file")
	metricsEvery := flag.Int64("metricsevery", 64, "series snapshot cadence in slots")
	flag.Parse()

	if *tracePath != "" || *metricsPath != "" {
		cfg.ObsEvery = *metricsEvery
	}

	pts, err := experiments.Fig2f(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fig2f:", err)
		os.Exit(1)
	}
	writeCaptures(pts, *tracePath, *metricsPath)

	var tb stats.Table
	tb.SetHeader("x", "theory r=1/(3-x)", "fluid θ", "sim r (pFabric)", "1D ORN", "2D ORN")
	for _, p := range pts {
		simCell := "-"
		if cfg.RunSim {
			simCell = fmt.Sprintf("%.4f", p.Sim)
		}
		tb.AddRow(
			fmt.Sprintf("%.2f", p.X),
			fmt.Sprintf("%.4f", p.Theory),
			fmt.Sprintf("%.4f", p.Fluid),
			simCell,
			"0.5000",
			"0.2500",
		)
	}
	fmt.Printf("Figure 2(f) — SORN worst-case throughput vs locality ratio (N=%d, Nc=%d)\n\n", cfg.N, cfg.Nc)
	if *csvOut {
		fmt.Print(tb.CSV())
	} else {
		fmt.Print(tb.String())
	}
}

// writeCaptures concatenates the per-point observability captures (each
// sweep point runs concurrently with its own Observer) into one JSONL
// trace and one metrics CSV, in x order. Series rows carry an "x=…" run
// label, so the combined files stay separable per point.
func writeCaptures(pts []experiments.Fig2fPoint, tracePath, metricsPath string) {
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			fatal(err)
		}
		for _, p := range pts {
			if err := p.Obs.WriteTraceJSONL(f); err != nil {
				fatal(err)
			}
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	if metricsPath != "" {
		f, err := os.Create(metricsPath)
		if err != nil {
			fatal(err)
		}
		cw := csv.NewWriter(f)
		wroteHeader := false
		for _, p := range pts {
			if p.Obs == nil {
				continue
			}
			if !wroteHeader {
				if err := cw.Write(p.Obs.SeriesHeader()); err != nil {
					fatal(err)
				}
				wroteHeader = true
			}
			for _, row := range p.Obs.SeriesRows() {
				if err := cw.Write(row); err != nil {
					fatal(err)
				}
			}
		}
		cw.Flush()
		if err := cw.Error(); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fig2f:", err)
	os.Exit(1)
}
