// Package repro's root benchmarks run every experiment of the paper's
// evaluation from experiments.Registry, the same entries `repro -exp X`
// prints, one sub-benchmark per entry at the entry's defaults:
//
//	go test -run NONE -bench 'Repro/fig2f$' -benchtime 1x .
//
// The ledger benchmarks below it are tracked across PRs in the
// BENCH_netsim.json ledger at fixed configs — record a labeled run with
// ./scripts/bench.sh (see EXPERIMENTS.md, "Benchmarking").
package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/controlplane"
	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/schedule"
	"repro/internal/workload"
)

// BenchmarkRepro runs each registry entry at its defaults, as a bare
// `repro -exp <name>` does.
func BenchmarkRepro(b *testing.B) {
	for _, e := range experiments.Registry {
		b.Run(e.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(experiments.DefaultRunContext()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// reportSweepMetrics records the ledger metadata benchjson renders for
// sweep benchmarks: the point count and the wall-clock cost per point.
func reportSweepMetrics(b *testing.B, points int) {
	b.ReportMetric(float64(points), "points")
	b.ReportMetric(b.Elapsed().Seconds()*1000/float64(b.N)/float64(points), "ms/point")
}

// BenchmarkFigure2fSimulated runs the packet-level series of Figure 2(f)
// at a reduced sweep (x ∈ {0, 0.5, 1}) with the paper's 128-node /
// 8-clique / pFabric-web-search setup.
func BenchmarkFigure2fSimulated(b *testing.B) {
	cfg := experiments.DefaultFig2fConfig()
	cfg.Step = 0.5
	cfg.WarmupSlots, cfg.MeasureSlots = 15000, 15000
	var pts []experiments.Fig2fPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiments.Fig2f(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range pts {
		b.ReportMetric(p.Sim, fmt.Sprintf("thpt_x%.2f", p.X))
	}
}

// BenchmarkFig2fSweep runs the paper's full default Figure 2(f) sweep
// (eleven x points, 25000+25000 slots each) through the bounded-parallel
// sweep engine with the shared build cache and pooled simulators — the
// headline wall-clock number for the sweep engine, tracked in the
// BENCH_netsim.json ledger.
func BenchmarkFig2fSweep(b *testing.B) {
	cfg := experiments.DefaultFig2fConfig()
	var pts []experiments.Fig2fPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiments.Fig2f(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pts[len(pts)-1].Sim, "thpt_x1.00")
	reportSweepMetrics(b, len(pts))
}

// BenchmarkQSweep prices the analytical q-sweep (A2 at ledger scale:
// nine q values through the shared build cache) under the sweep engine.
func BenchmarkQSweep(b *testing.B) {
	qs := []float64{1, 1.5, 2, 3, model.SORNQ(0.56), 5, 6, 8, 12}
	var pts []experiments.QSweepPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiments.QSweep(64, 8, 0.56, qs, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSweepMetrics(b, len(pts))
}

// BenchmarkDecideSteady is one control epoch under constant telemetry
// (N=128, Nc=8, x=0.56): an Observe plus a Resilient.Decide that
// confirms the incumbent plan — what almost every epoch of the
// availability experiment does.
func BenchmarkDecideSteady(b *testing.B) {
	c, err := controlplane.NewController(128, 8, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	r := controlplane.NewResilient(c)
	cl, err := schedule.EqualCliques(128, 8)
	if err != nil {
		b.Fatal(err)
	}
	tm, err := workload.Locality(cl, 0.56)
	if err != nil {
		b.Fatal(err)
	}
	epoch := func() {
		if err := c.Observe(tm); err != nil {
			b.Fatal(err)
		}
		if _, err := r.Decide(); err != nil {
			b.Fatal(err)
		}
	}
	epoch() // install the first plan
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		epoch()
	}
}

// BenchmarkPoissonWindow generates one 100k-slot open-loop flow window
// at N=128, x=0.56, load 0.3, 8-cell flows (~480k flows, the
// availability experiment's per-design workload).
func BenchmarkPoissonWindow(b *testing.B) {
	cl, err := schedule.EqualCliques(128, 8)
	if err != nil {
		b.Fatal(err)
	}
	tm, err := workload.Locality(cl, 0.56)
	if err != nil {
		b.Fatal(err)
	}
	g, err := workload.NewPoissonFlows(tm, workload.FixedSize(8), 0.3, 1)
	if err != nil {
		b.Fatal(err)
	}
	const span = 100000
	var flows int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flows = len(g.Window(int64(i)*span, int64(i+1)*span))
	}
	b.ReportMetric(float64(flows), "flows")
}
