// Package repro's root benchmarks regenerate every table and figure of
// the paper (and the DESIGN.md ablations) via the same code paths as the
// cmd/ binaries, reporting the headline numbers as benchmark metrics:
//
//	go test -bench=. -benchmem
//
// Metric conventions: thpt_* are throughput fractions (the paper's r),
// lat_us_* are minimum worst-case latencies in microseconds, blast_* are
// affected-pair fractions.
//
// The netsim-heavy subset (BenchmarkFigure2fSimulated plus the
// internal/netsim micro-benchmarks) is tracked across PRs in the
// BENCH_netsim.json ledger — record a labeled run with
// ./scripts/bench.sh (see EXPERIMENTS.md, "Benchmarking").
package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/controlplane"
	"repro/internal/experiments"
	"repro/internal/matching"
	"repro/internal/model"
	"repro/internal/ocs"
	"repro/internal/phys"
	"repro/internal/schedule"
	"repro/internal/workload"
)

// reportSweepMetrics records the ledger metadata benchjson renders for
// sweep benchmarks: the point count and the wall-clock cost per point.
func reportSweepMetrics(b *testing.B, points int) {
	b.ReportMetric(float64(points), "points")
	b.ReportMetric(b.Elapsed().Seconds()*1000/float64(b.N)/float64(points), "ms/point")
}

// BenchmarkTable1 regenerates the paper's Table 1 and reports each row's
// minimum latency and throughput as metrics.
func BenchmarkTable1(b *testing.B) {
	var rows []model.Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = model.Table1(model.Table1Params(), 0.56, true)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		name := metricName(r.System, r.Variant)
		b.ReportMetric(r.MinLatencyMicros(), "lat_us_"+name)
		b.ReportMetric(r.Throughput, "thpt_"+name)
	}
}

// BenchmarkFigure1RoundRobin regenerates Figure 1 (the 5-node round-robin
// schedule) and benchmarks schedule construction + validation.
func BenchmarkFigure1RoundRobin(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := matching.RoundRobin(5)
		if err := s.Validate(); err != nil {
			b.Fatal(err)
		}
		if s.Period() != 4 {
			b.Fatal("figure 1 shape wrong")
		}
	}
}

// BenchmarkFigure2bMatchings regenerates Figure 2(b): the matchings an
// 8-port wavelength-selective OCS offers.
func BenchmarkFigure2bMatchings(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sw, err := ocs.NewAWGR(8)
		if err != nil {
			b.Fatal(err)
		}
		for k := 1; k <= sw.NumWavelengths(); k++ {
			if err := sw.Matching(k).Validate(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFigure2dTopologyA regenerates Figure 2(d): two cliques of
// four at q=3, including the node wavelength state of Figure 2(c).
func BenchmarkFigure2dTopologyA(b *testing.B) {
	var q float64
	for i := 0; i < b.N; i++ {
		a := schedule.TopologyA()
		sw, err := ocs.NewAWGR(8)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ocs.CompileNodeStates(sw, a.Schedule); err != nil {
			b.Fatal(err)
		}
		q = a.RealizedQ
	}
	b.ReportMetric(q, "q_topologyA")
}

// BenchmarkFigure2eTopologyB regenerates Figure 2(e): four cliques of two.
func BenchmarkFigure2eTopologyB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := schedule.TopologyB()
		if err := t.Schedule.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2fTheory reports the r = 1/(3−x) series.
func BenchmarkFigure2fTheory(b *testing.B) {
	var r0, r56, r100 float64
	for i := 0; i < b.N; i++ {
		r0 = model.SORNThroughput(0)
		r56 = model.SORNThroughput(0.56)
		r100 = model.SORNThroughput(1)
	}
	b.ReportMetric(r0, "thpt_x0.0")
	b.ReportMetric(r56, "thpt_x0.56")
	b.ReportMetric(r100, "thpt_x1.0")
}

// BenchmarkFigure2fFluid runs the exact link-load series of Figure 2(f)
// over the built 128-node / 8-clique schedules.
func BenchmarkFigure2fFluid(b *testing.B) {
	cfg := experiments.DefaultFig2fConfig()
	cfg.RunSim = false
	cfg.Step = 0.25
	var pts []experiments.Fig2fPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiments.Fig2f(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range pts {
		b.ReportMetric(p.Fluid, fmt.Sprintf("thpt_x%.2f", p.X))
	}
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

// BenchmarkFig2fSweepQuick is the CI-sized variant of BenchmarkFig2fSweep
// (three x points, 1500+1500 slots): fast enough for quick ledger runs,
// same code path as the full sweep.
func BenchmarkFig2fSweepQuick(b *testing.B) {
	cfg := experiments.DefaultFig2fConfig()
	cfg.N, cfg.Nc = 64, 8
	cfg.Step = 0.5
	cfg.WarmupSlots, cfg.MeasureSlots = 1500, 1500
	cfg.SizeCap = 512
	var pts []experiments.Fig2fPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiments.Fig2f(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
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

// BenchmarkAblationLocalityMismatch (A1) reports throughput with a
// mis-estimated locality x̂=0.5 against actual x ∈ {0.3, 0.7}.
func BenchmarkAblationLocalityMismatch(b *testing.B) {
	var pts []experiments.MismatchPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiments.LocalityMismatch(64, 8, []float64{0.5}, []float64{0.3, 0.5, 0.7}, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range pts {
		b.ReportMetric(p.Fluid, fmt.Sprintf("thpt_planned%.1f_actual%.1f", p.XPlanned, p.XActual))
	}
}

// BenchmarkAblationQSweep (A2) reports the throughput knee around
// q* = 2/(1−x) at x=0.56.
func BenchmarkAblationQSweep(b *testing.B) {
	qs := []float64{2, model.SORNQ(0.56), 8}
	var pts []experiments.QSweepPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiments.QSweep(64, 8, 0.56, qs, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range pts {
		b.ReportMetric(p.Fluid, fmt.Sprintf("thpt_q%.1f", p.Q))
	}
}

// BenchmarkAblationNcSweep (A3) reports the Table 1 latency split
// generalized across clique counts.
func BenchmarkAblationNcSweep(b *testing.B) {
	var rows []experiments.NcSweepRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.NcSweep(model.Table1Params(), 0.56, []int{16, 64, 256}, 256, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.IntraLatNS/1000, fmt.Sprintf("lat_us_intra_nc%d", r.Nc))
		b.ReportMetric(r.InterLatNS/1000, fmt.Sprintf("lat_us_inter_nc%d", r.Nc))
	}
}

// BenchmarkAblationBlastRadius (A4) reports the failure blast radius of
// SORN versus the flat 1D ORN.
func BenchmarkAblationBlastRadius(b *testing.B) {
	var rows []experiments.BlastRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.BlastRadius(64, 8, 3, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].NodeBlast, "blast_node_sorn")
	b.ReportMetric(rows[1].NodeBlast, "blast_node_flat")
}

// BenchmarkAblationAdaptation (A5) runs the packet-level workload-shift /
// reconfigure experiment and reports per-phase throughput.
func BenchmarkAblationAdaptation(b *testing.B) {
	var phases []experiments.AdaptationPhase
	for i := 0; i < b.N; i++ {
		var err error
		phases, err = experiments.Adaptation(experiments.AdaptationConfig{
			N: 64, Nc: 8, X1: 0.2, X2: 0.8, PhaseSlots: 6000, Seed: 3,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(phases[0].Throughput, "thpt_matched")
	b.ReportMetric(phases[1].Throughput, "thpt_stale")
	b.ReportMetric(phases[2].Throughput, "thpt_adapted")
}

// BenchmarkAblationGravity (A6) reports throughput under gravity-skewed
// aggregate demand.
func BenchmarkAblationGravity(b *testing.B) {
	mass := []float64{4, 2, 2, 1, 1, 1, 1, 1}
	var pts []experiments.GravityPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiments.Gravity(64, 8, mass, []float64{1, 2, 4}, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range pts {
		b.ReportMetric(p.Theta, fmt.Sprintf("thpt_q%.1f", p.Q))
	}
}

// BenchmarkAblationExpressivity (A7) reports the §5 demand-aware (BvN)
// schedule against the uniform inter-clique allocation under partnered
// clique traffic.
func BenchmarkAblationExpressivity(b *testing.B) {
	var rows []experiments.ExpressivityRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Expressivity(64, 8, 3, 0.2, 0.6)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].Theta, "thpt_uniform")
	b.ReportMetric(rows[1].Theta, "thpt_demand_aware")
}

// BenchmarkLatencyOrdering (L1) measures Table 1's latency ordering in
// the packet simulator at light load.
func BenchmarkLatencyOrdering(b *testing.B) {
	var rows []experiments.LatencyRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.LatencyComparison(64, 8, 1, 0.05, 17, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.P50us, "lat_us_p50_"+metricName(r.Design, r.Class))
	}
}

// BenchmarkAblationPlaneSweep (U1) reports p50 latency vs uplink count.
func BenchmarkAblationPlaneSweep(b *testing.B) {
	var pts []experiments.PlanePoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiments.PlaneSweep(experiments.PlaneSweepConfig{
			N: 64, Nc: 8, X: 0.56, Planes: []int{1, 16}, Load: 0.05, Seed: 19,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range pts {
		b.ReportMetric(p.P50us, fmt.Sprintf("lat_us_p50_planes%d", p.Planes))
	}
}

// BenchmarkAblationSyncOverhead (S1) reports effective throughput after
// synchronization guards at 100 ns slots.
func BenchmarkAblationSyncOverhead(b *testing.B) {
	var rows []experiments.SyncRow
	for i := 0; i < b.N; i++ {
		rows = experiments.SyncOverhead(4096, 64, 0.56, 4, []float64{100})
	}
	b.ReportMetric(rows[0].SORNThpt, "thpt_sorn_100ns")
	b.ReportMetric(rows[0].FlatThpt, "thpt_flat_100ns")
}

// BenchmarkAblationStateScaling (S2) reports per-node NIC state at 4096
// nodes.
func BenchmarkAblationStateScaling(b *testing.B) {
	var rows []experiments.StateRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.StateScaling([]int{4096}, 0.56)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows[0].SORNStateBytes), "bytes_sorn")
	b.ReportMetric(float64(rows[0].FlatStateBytes), "bytes_flat")
}

// BenchmarkAblationDiurnal (A8) reports mean throughput while tracking a
// sinusoidal locality cycle.
func BenchmarkAblationDiurnal(b *testing.B) {
	var pts []experiments.DiurnalPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiments.Diurnal(experiments.DiurnalConfig{
			N: 64, Nc: 8, Lo: 0.2, Hi: 0.8, Period: 12, Epochs: 24,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	a, s, c := experiments.DiurnalSummary(pts)
	b.ReportMetric(a, "thpt_adaptive")
	b.ReportMetric(s, "thpt_static")
	b.ReportMetric(c, "thpt_clairvoyant")
}

// BenchmarkAblationPhysFeasibility (P1) reports the §5 port costs of the
// boundary clique sizes on the paper's deployment.
func BenchmarkAblationPhysFeasibility(b *testing.B) {
	var need2048, needFlat int
	for i := 0; i < b.N; i++ {
		var err error
		need2048, err = phys.PortsForCliqueSize(4096, 256, 2048)
		if err != nil {
			b.Fatal(err)
		}
		needFlat, err = phys.PortsForCliqueSize(4096, 256, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(need2048), "ports_k2048")
	b.ReportMetric(float64(needFlat), "ports_flat")
}

// BenchmarkFCTvsLoad (F1) reports short-flow FCT medians at 10% load.
func BenchmarkFCTvsLoad(b *testing.B) {
	var pts []experiments.FCTPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiments.FCTvsLoad(experiments.FCTConfig{
			N: 64, Nc: 8, X: 0.56, Loads: []float64{0.1}, Slots: 15000, Seed: 37,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range pts {
		b.ReportMetric(p.P50us, "fct_us_p50_"+metricName(p.Design, ""))
	}
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

// metricName flattens a Table 1 row identity into a metric suffix.
func metricName(system, variant string) string {
	out := make([]rune, 0, len(system)+len(variant)+1)
	for _, r := range system + "_" + variant {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '_':
			out = append(out, r)
		case r >= 'A' && r <= 'Z':
			out = append(out, r+('a'-'A'))
		case r == ' ' || r == '-':
			out = append(out, '_')
		}
	}
	return string(out)
}
