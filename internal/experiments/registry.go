package experiments

import (
	"cmp"
	"fmt"

	"repro/internal/matching"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/ocs"
	"repro/internal/phys"
	"repro/internal/schedule"
	"repro/internal/stats"
)

// RunContext carries the settings every registry entry shares, plus the
// settings that only fig2f or only table1 reads.
type RunContext struct {
	N, Nc        int
	Seed         uint64
	SweepWorkers int
	Obs          *obs.Observer

	Fig2f  Fig2fConfig // Step, RunSim, WarmupSlots, MeasureSlots, Backlog, SizeCap
	Table1 Table1Options
}

// Table1Options are the settings only table1 reads; Params.N comes from
// RunContext.N.
type Table1Options struct {
	model.Params
	X           float64
	TextFormula bool
}

// DefaultRunContext is the paper's setup for every entry: N, Nc and Seed
// at 0 (each entry's own default), Figure 2(f) as DefaultFig2fConfig and
// Table 1 at Table1Params and x = 0.56.
func DefaultRunContext() RunContext {
	return RunContext{
		Fig2f:  DefaultFig2fConfig(),
		Table1: Table1Options{Params: model.Table1Params(), X: 0.56},
	}
}

// Report is what every entry returns: a title line, one table and note
// lines printed under it.
type Report struct {
	Title string
	Table stats.Table
	Notes []string
}

// Experiment is one registry entry. N, Nc and Seed are the defaults Run
// substitutes for a RunContext field left at 0. An entry reads exactly
// the fields it has a default for: with no N default its sizes are
// fixed, with no Nc default it has no cliques to count, and with no
// Seed default it draws nothing at random.
type Experiment struct {
	Name  string
	N, Nc int
	Seed  uint64
	run   func(RunContext) (*Report, error)
}

// Reads reports which of RunContext's N, Nc and Seed (repro's -n, -nc
// and -seed) the entry reads.
func (e Experiment) Reads() (n, nc, seed bool) { return e.N != 0, e.Nc != 0, e.Seed != 0 }

// Run runs the entry under c, with c's zero N, Nc and Seed replaced by
// the entry's defaults. A nonzero N, Nc or Seed is an error for an
// entry that does not read it.
func (e Experiment) Run(c RunContext) (*Report, error) {
	n, nc, seed := e.Reads()
	switch {
	case c.N != 0 && !n:
		return nil, fmt.Errorf("does not read -n (its sizes are fixed); got -n %d", c.N)
	case c.Nc != 0 && !nc:
		return nil, fmt.Errorf("does not read -nc; got -nc %d", c.Nc)
	case c.Seed != 0 && !seed:
		return nil, fmt.Errorf("does not read -seed (it draws nothing at random); got -seed %d", c.Seed)
	}
	c.N, c.Nc, c.Seed = cmp.Or(c.N, e.N), cmp.Or(c.Nc, e.Nc), cmp.Or(c.Seed, e.Seed)
	return e.run(c)
}

// ablation is a registry entry at the ablations' shared sizes, N 64 and
// Nc 8. seed is its default seed, or 0 for an ablation that draws
// nothing at random and so reads no seed.
func ablation(name string, seed uint64, run func(RunContext) (*Report, error)) Experiment {
	return Experiment{Name: name, N: 64, Nc: 8, Seed: seed, run: run}
}

// Registry lists every experiment of the paper's evaluation, in the
// order `repro -exp all` runs them: the schedule figures, Table 1,
// Figure 2(f), then the ablations of DESIGN.md. The schedule figures
// are fixed examples and read nothing from the RunContext; ncsweep,
// sync, state and phys evaluate fixed deployment sizes, so they read no
// N either.
var Registry = []Experiment{
	{Name: "fig1", run: fig1},
	{Name: "fig2b", run: fig2b},
	{Name: "fig2c", run: fig2c},
	{Name: "fig2d", run: fig2d},
	{Name: "fig2e", run: fig2e},
	{Name: "table1", N: 4096, run: table1},
	{Name: "fig2f", N: 128, Nc: 8, Seed: 42, run: fig2f},
	ablation("mismatch", 0, mismatch),
	ablation("qsweep", 0, qsweep),
	{Name: "ncsweep", run: ncsweep},
	ablation("blast", 0, blast),
	ablation("adapt", 11, adapt),
	ablation("gravity", 0, gravity),
	ablation("pairs", 0, pairs),
	// Larger N separates the designs' cycle times more clearly; 256 is a
	// perfect square (needed by the 2D ORN) and still simulates quickly.
	{Name: "latency", N: 256, Nc: 8, Seed: 11, run: latency},
	ablation("planes", 11, planes),
	{Name: "sync", run: syncOverhead},
	{Name: "state", run: state},
	ablation("diurnal", 0, diurnal),
	{Name: "phys", run: physFeasibility},
	ablation("fct", 11, fct),
}

// newReport starts a report with its title and table header.
func newReport(title string, header ...string) *Report {
	r := &Report{Title: title}
	r.Table.SetHeader(header...)
	return r
}

// scheduleReport tabulates a schedule as the paper draws it: one row
// per slot, labeled by rowFmt with the slot's 1-based index, and one
// column per node, each cell the node's circuit partner.
func scheduleReport(title, rowFmt string, s *matching.Schedule) *Report {
	header := []string{""}
	for v := 0; v < s.N; v++ {
		header = append(header, matching.NodeName(v, s.N))
	}
	r := newReport(title, header...)
	for t, m := range s.Slots {
		row := []string{fmt.Sprintf(rowFmt, t+1)}
		for _, peer := range m {
			row = append(row, matching.NodeName(peer, s.N))
		}
		r.Table.AddRow(row...)
	}
	return r
}

func fig1(RunContext) (*Report, error) {
	return scheduleReport("Figure 1 — oblivious round-robin schedule, 5 nodes:", "slot %d", matching.RoundRobin(5)), nil
}

// fig2b lists the matchings m1..m5 of an 8-port AWGR, one row each:
// wavelength λk sends every port s to port s+k.
func fig2b(RunContext) (*Report, error) {
	ms := &matching.Schedule{N: 8, Slots: matching.AWGRMatchings(8)[:5]}
	return scheduleReport("Figure 2(b) — matchings of an 8-port wavelength-selective OCS (showing m1..m5):", "m%d", ms), nil
}

// fig2c is the node view of topology A (Figure 2(d)): the transmit
// wavelength each node holds per slot to realize the schedule.
func fig2c(RunContext) (*Report, error) {
	a := schedule.TopologyA()
	sw, err := ocs.NewAWGR(a.Config.N)
	if err != nil {
		return nil, err
	}
	states, err := ocs.CompileNodeStates(sw, a.Schedule)
	if err != nil {
		return nil, err
	}
	header := []string{"node"}
	for t := range a.Schedule.Slots {
		header = append(header, fmt.Sprintf("slot %d", t+1))
	}
	r := newReport("Figure 2(c) — node state for topology A: transmit wavelength per slot:", append(header, "state (B)")...)
	for _, ns := range states {
		row := []string{matching.NodeName(ns.Node, a.Config.N)}
		for _, w := range ns.TxWavelength {
			row = append(row, fmt.Sprintf("λ%d", w))
		}
		r.Table.AddRow(append(row, fmt.Sprint(ns.StateBytes()))...)
	}
	return r, nil
}

func fig2d(RunContext) (*Report, error) {
	a := schedule.TopologyA()
	return scheduleReport(fmt.Sprintf("Figure 2(d) — topology A: 2 cliques of 4, q=%.0f (intra bandwidth 3x inter):", a.RealizedQ), "slot %d", a.Schedule), nil
}

func fig2e(RunContext) (*Report, error) {
	b := schedule.TopologyB()
	return scheduleReport(fmt.Sprintf("Figure 2(e) — topology B: 4 cliques of 2 (q=%.0f):", b.RealizedQ), "slot %d", b.Schedule), nil
}

func table1(c RunContext) (*Report, error) {
	p, x := c.Table1.Params, c.Table1.X
	p.N = c.N
	rows, err := model.Table1(p, x, !c.Table1.TextFormula)
	if err != nil {
		return nil, err
	}
	r := &Report{Title: fmt.Sprintf("Table 1 — %d racks, %d uplinks, %.0f ns slots, %.0f ns/hop propagation, x=%.2f\n",
		p.N, p.Uplinks, p.SlotNS, p.PropNS, x)}
	r.Table.SetHeader("System", "Variant", "Max hops", "δm", "Min latency (µs)", "Thpt.", "Norm. BW cost")
	for _, row := range rows {
		r.Table.AddRow(
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

func fig2f(c RunContext) (*Report, error) {
	cfg := c.Fig2f
	cfg.N, cfg.Nc, cfg.Seed = c.N, c.Nc, c.Seed
	cfg.SweepWorkers, cfg.Obs = c.SweepWorkers, c.Obs
	pts, err := Fig2f(cfg)
	if err != nil {
		return nil, err
	}
	r := newReport(fmt.Sprintf("Figure 2(f) — SORN worst-case throughput vs locality ratio (N=%d, Nc=%d)\n", cfg.N, cfg.Nc),
		"x", "theory r=1/(3-x)", "fluid θ", "sim r (pFabric)", "1D ORN", "2D ORN")
	for _, p := range pts {
		simCell := "-"
		if cfg.RunSim {
			simCell = fmt.Sprintf("%.4f", p.Sim)
		}
		r.Table.AddRow(
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

func mismatch(c RunContext) (*Report, error) {
	pts, err := LocalityMismatch(c.N, c.Nc, []float64{0.2, 0.5, 0.8}, []float64{0.1, 0.3, 0.5, 0.7, 0.9}, c.SweepWorkers)
	if err != nil {
		return nil, err
	}
	r := newReport("A1 — locality estimation error margin (schedule built for x̂, traffic has x):",
		"x̂ planned", "x actual", "model r", "fluid θ", "vs clairvoyant")
	for _, p := range pts {
		r.Table.AddRow(
			fmt.Sprintf("%.1f", p.XPlanned),
			fmt.Sprintf("%.1f", p.XActual),
			fmt.Sprintf("%.4f", p.Model),
			fmt.Sprintf("%.4f", p.Fluid),
			fmt.Sprintf("%.0f%%", 100*p.Fluid/model.SORNThroughput(p.XActual)),
		)
	}
	return r, nil
}

func qsweep(c RunContext) (*Report, error) {
	const x = 0.56
	pts, err := QSweep(c.N, c.Nc, x, []float64{1, 2, 3, 4, model.SORNQ(x), 6, 8, 12, 16}, c.SweepWorkers)
	if err != nil {
		return nil, err
	}
	r := newReport(fmt.Sprintf("A2 — throughput vs oversubscription q at x=%.2f (q* = %.2f):", x, model.SORNQ(x)),
		"q (realized)", "model r", "fluid θ")
	for _, p := range pts {
		r.Table.AddRow(fmt.Sprintf("%.2f", p.Q), fmt.Sprintf("%.4f", p.Model), fmt.Sprintf("%.4f", p.Fluid))
	}
	return r, nil
}

func ncsweep(c RunContext) (*Report, error) {
	p := model.Table1Params()
	rows, err := NcSweep(p, 0.56, []int{8, 16, 32, 64, 128, 256, 512}, 256, c.SweepWorkers)
	if err != nil {
		return nil, err
	}
	r := newReport(fmt.Sprintf("A3 — latency split vs clique count (N=%d, x=0.56):", p.N),
		"Nc", "intra δm", "inter δm", "intra lat (µs)", "inter lat (µs)", "built wait@256", "formula@256")
	for _, row := range rows {
		r.Table.AddRow(
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

func blast(c RunContext) (*Report, error) {
	rows, err := BlastRadius(c.N, c.Nc, 3, c.SweepWorkers)
	if err != nil {
		return nil, err
	}
	r := newReport(fmt.Sprintf("A4 — failure blast radius (fraction of src-dst pairs affected), N=%d:", c.N),
		"Design", "node failure", "intra-link failure", "inter-link failure")
	for _, row := range rows {
		r.Table.AddRow(
			row.Design,
			fmt.Sprintf("%.4f", row.NodeBlast),
			fmt.Sprintf("%.4f", row.IntraLink),
			fmt.Sprintf("%.4f", row.InterLink),
		)
	}
	return r, nil
}

func adapt(c RunContext) (*Report, error) {
	phases, err := Adaptation(AdaptationConfig{
		N: c.N, Nc: c.Nc, X1: 0.2, X2: 0.8, PhaseSlots: 8000, Seed: c.Seed, Obs: c.Obs,
	})
	if err != nil {
		return nil, err
	}
	r := newReport(fmt.Sprintf("A5 — semi-oblivious adaptation after a workload shift (N=%d, packet sim):", c.N),
		"Phase", "offered locality", "q in force", "measured r")
	for _, p := range phases {
		r.Table.AddRow(p.Name, fmt.Sprintf("%.1f", p.Locality), fmt.Sprintf("%.2f", p.Q), fmt.Sprintf("%.4f", p.Throughput))
	}
	return r, nil
}

func gravity(c RunContext) (*Report, error) {
	if c.Nc < 3 {
		return nil, fmt.Errorf("gravity needs at least 3 cliques for its 4:2:2:1... masses, got -nc %d", c.Nc)
	}
	mass := make([]float64, c.Nc)
	for i := range mass {
		mass[i] = 1
	}
	mass[0], mass[1], mass[2] = 4, 2, 2
	pts, err := Gravity(c.N, c.Nc, mass, []float64{1, 2, 3, 4, 6, 8}, c.SweepWorkers)
	if err != nil {
		return nil, err
	}
	r := newReport(fmt.Sprintf("A6 — gravity-skewed aggregate demand (masses 4:2:2:1...), N=%d:", c.N),
		"q (realized)", "fluid θ under gravity TM")
	r.Notes = []string{
		"(gravity's hot *receiver* cannot be helped by rebalancing circuits: every",
		" schedule is doubly stochastic — §5 notes gravity needs port heterogeneity)",
	}
	for _, p := range pts {
		r.Table.AddRow(fmt.Sprintf("%.2f", p.Q), fmt.Sprintf("%.4f", p.Theta))
	}
	return r, nil
}

func pairs(c RunContext) (*Report, error) {
	rows, err := Expressivity(c.N, c.Nc, 3, 0.2, 0.6)
	if err != nil {
		return nil, err
	}
	r := newReport(fmt.Sprintf("A7 — §5 expressivity: partnered cliques (60%% of demand to the partner), N=%d:", c.N),
		"Inter-clique schedule", "fluid θ", "mean hops")
	r.Notes = []string{"(the BvN demand-aware schedule concentrates inter slots on partner cliques)"}
	for _, row := range rows {
		r.Table.AddRow(row.Design, fmt.Sprintf("%.4f", row.Theta), fmt.Sprintf("%.2f", row.MeanHops))
	}
	return r, nil
}

func latency(c RunContext) (*Report, error) {
	rows, err := LatencyComparison(c.N, c.Nc, 1, 0.05, c.Seed, c.SweepWorkers)
	if err != nil {
		return nil, err
	}
	r := newReport(fmt.Sprintf("L1 — packet-level latency at 5%% load (N=%d, 100 ns slots, 500 ns/hop, 1 uplink):", c.N),
		"Design", "Class", "p50 (µs)", "p99 (µs)", "mean hops")
	r.Notes = []string{"(Table 1's ordering, measured: SORN intra < 2D ORN < SORN inter < 1D ORN)"}
	for _, row := range rows {
		r.Table.AddRow(row.Design, row.Class,
			fmt.Sprintf("%.2f", row.P50us), fmt.Sprintf("%.2f", row.P99us),
			fmt.Sprintf("%.2f", row.MeanHops))
	}
	return r, nil
}

func planes(c RunContext) (*Report, error) {
	pts, err := PlaneSweep(PlaneSweepConfig{
		N: c.N, Nc: c.Nc, X: 0.56, Planes: []int{1, 2, 4, 8, 16}, Load: 0.05, Seed: c.Seed,
		SweepWorkers: c.SweepWorkers,
	})
	if err != nil {
		return nil, err
	}
	r := newReport(fmt.Sprintf("U1 — uplink planes divide the schedule wait (N=%d, 5%% load, SORN x=0.56):", c.N),
		"uplinks", "p50 (µs)", "p99 (µs)")
	for _, p := range pts {
		r.Table.AddRow(fmt.Sprint(p.Planes), fmt.Sprintf("%.2f", p.P50us), fmt.Sprintf("%.2f", p.P99us))
	}
	return r, nil
}

func syncOverhead(RunContext) (*Report, error) {
	r := newReport("S1 — §6 sync overhead: per-slot guard vs domain size (N=4096, Nc=64, 4 ns/level):",
		"slot (ns)", "SORN slot eff.", "flat slot eff.", "SORN eff. thpt", "flat eff. thpt")
	r.Notes = []string{
		"(shorter slots magnify SORN's smaller sync domains; its effective",
		" throughput overtakes the flat design despite the lower worst-case r)",
	}
	for _, row := range SyncOverhead(4096, 64, 0.56, 4, []float64{1000, 200, 100, 80, 60, 50}) {
		r.Table.AddRow(
			fmt.Sprintf("%.0f", row.SlotNS),
			fmt.Sprintf("%.3f", row.SORNEff),
			fmt.Sprintf("%.3f", row.FlatEff),
			fmt.Sprintf("%.4f", row.SORNThpt),
			fmt.Sprintf("%.4f", row.FlatThpt),
		)
	}
	return r, nil
}

func state(RunContext) (*Report, error) {
	rows, err := StateScaling([]int{256, 512, 1024, 2048, 4096}, 0.56)
	if err != nil {
		return nil, err
	}
	r := newReport("S2 — §5 NIC state per node (Figure 2c: tx wavelength per slot + queue per neighbor):",
		"N", "SORN period", "SORN state (B)", "1D ORN period", "1D ORN state (B)")
	for _, row := range rows {
		r.Table.AddRow(fmt.Sprint(row.N), fmt.Sprint(row.SORNPeriod), fmt.Sprint(row.SORNStateBytes),
			fmt.Sprint(row.FlatPeriod), fmt.Sprint(row.FlatStateBytes))
	}
	return r, nil
}

func diurnal(c RunContext) (*Report, error) {
	pts, err := Diurnal(DiurnalConfig{
		N: c.N, Nc: c.Nc, Lo: 0.2, Hi: 0.8, Period: 12, Epochs: 36, SweepWorkers: c.SweepWorkers, Obs: c.Obs,
	})
	if err != nil {
		return nil, err
	}
	a, s, cl := DiurnalSummary(pts)
	r := newReport(fmt.Sprintf("A8 — diurnal locality cycle 0.2..0.8 over 12-epoch periods (N=%d):", c.N),
		"epoch", "true x", "est. x", "adaptive θ", "static θ", "clairvoyant θ")
	r.Notes = []string{fmt.Sprintf("mean throughput: adaptive %.4f, static %.4f, clairvoyant %.4f", a, s, cl)}
	for _, p := range pts {
		if p.Epoch%3 != 0 {
			continue // print every 3rd epoch
		}
		r.Table.AddRow(fmt.Sprint(p.Epoch),
			fmt.Sprintf("%.2f", p.TrueX), fmt.Sprintf("%.2f", p.EstimateX),
			fmt.Sprintf("%.4f", p.AdaptiveR), fmt.Sprintf("%.4f", p.StaticR),
			fmt.Sprintf("%.4f", p.ClairvoyR))
	}
	return r, nil
}

func physFeasibility(RunContext) (*Report, error) {
	const n, ports, g = 4096, 16, 256
	r := newReport(fmt.Sprintf("P1 — §5 physical feasibility: clique sizes on %d nodes, %d ports/node, %d-port gratings:", n, ports, g),
		"clique size", "ports needed", "fits 16-port budget")
	r.Notes = []string{
		"(the paper's \"16, 32, 64 up to 2048\": k=2048 consumes the 16-port budget",
		" exactly; a flat all-pairs fabric would need 31 ports per node)",
	}
	for k := 1; k <= n; k *= 2 {
		need, err := phys.PortsForCliqueSize(n, g, k)
		if err != nil {
			continue
		}
		fits := "yes"
		if need > ports {
			fits = "NO"
		}
		r.Table.AddRow(fmt.Sprint(k), fmt.Sprint(need), fits)
	}
	return r, nil
}

func fct(c RunContext) (*Report, error) {
	pts, err := FCTvsLoad(FCTConfig{
		N: c.N, Nc: c.Nc, X: 0.56, Loads: []float64{0.1, 0.2, 0.3, 0.4}, Slots: 25000, Seed: c.Seed,
		SweepWorkers: c.SweepWorkers, Obs: c.Obs,
	})
	if err != nil {
		return nil, err
	}
	r := newReport(fmt.Sprintf("F1 — short-flow (16-cell) FCT vs offered load (N=%d, x=0.56):", c.N),
		"Design", "load", "FCT p50 (µs)", "FCT p99 (µs)", "flows done")
	for _, p := range pts {
		r.Table.AddRow(p.Design, fmt.Sprintf("%.2f", p.Load),
			fmt.Sprintf("%.1f", p.P50us), fmt.Sprintf("%.1f", p.P99us),
			fmt.Sprint(p.Done))
	}
	return r, nil
}
