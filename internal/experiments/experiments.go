// Package experiments implements the paper's evaluation as reusable,
// parameterized experiment runners. Each function regenerates one table,
// figure, or ablation; Registry renders each as one table, which cmd/repro
// prints and the root BenchmarkRepro times, so both run one definition.
//
// Every sweep-shaped experiment runs on the internal/sweep engine: points
// execute on a bounded worker pool (a SweepWorkers knob on struct configs,
// a trailing sweepWorkers parameter on positional ones; 0 = one worker
// per CPU, 1 = serial), network builds are shared through
// core.SharedBuilds, and simulator allocations are reused per worker via
// core.SimPool + netsim.Reset. Results are bit-identical for every
// concurrency setting — see the sweep package comment and
// TestSweepDeterminismAcrossConcurrency.
package experiments

import (
	"fmt"
	"math"

	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/fluid"
	"repro/internal/matching"
	"repro/internal/model"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/routing"
	"repro/internal/schedule"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// Fig2fPoint is one x-value of the Figure 2(f) sweep.
type Fig2fPoint struct {
	X      float64
	Theory float64 // r = 1/(3−x)
	Fluid  float64 // exact link-load θ of the built schedule + router
	Sim    float64 // saturated 128-node packet simulation (0 if skipped)
}

// Fig2fConfig parameterizes the sweep.
type Fig2fConfig struct {
	N, Nc        int
	Step         float64
	RunSim       bool
	WarmupSlots  int64
	MeasureSlots int64
	Backlog      int64
	SizeCap      int
	Seed         uint64
	// Deprecated: Workers is ignored; every simulation steps serially.
	// It stays only while the benchmark module still sets it (ROADMAP
	// items 3 and 5).
	Workers int
	// SweepWorkers bounds how many points run concurrently
	// (sweep.Config.Concurrency: 0 = one worker per CPU, 1 = serial).
	// Results are bit-identical for every value. Forced serial when Obs
	// is set (see observedSweep).
	SweepWorkers int
	// Obs, when non-nil, captures every simulated point's metric series
	// and event trace, labeled "x=…" per point so one capture carries the
	// whole sweep.
	Obs *obs.Observer
}

// DefaultFig2fConfig is the paper's setup: 128 nodes, 8 cliques,
// pFabric web-search traffic.
func DefaultFig2fConfig() Fig2fConfig {
	return Fig2fConfig{
		N: 128, Nc: 8, Step: 0.1, RunSim: true,
		WarmupSlots: 25000, MeasureSlots: 25000, Backlog: 4096,
		SizeCap: 1333, Seed: 42,
	}
}

// fig2fGrid generates the locality grid x_i = i·Step by index. Computing
// each point from the index (instead of accumulating x += Step) keeps the
// grid exact: repeated addition drifts by an ulp per step, so an
// accumulated 0.1-grid lands on 0.7999999999999999 and ends at
// 0.9999999999999999 instead of 0.8 and 1. The grid covers [0, 1] and
// always ends at exactly 1.
func fig2fGrid(step float64) []float64 {
	var xs []float64
	for i := 0; ; i++ {
		x := float64(i) * step
		if x >= 1 {
			xs = append(xs, 1)
			return xs
		}
		xs = append(xs, x)
	}
}

// Fig2f runs the throughput-vs-locality sweep on the sweep engine: points
// run on a bounded worker pool (cfg.SweepWorkers), each on its own RNG
// stream split off the sweep seed serially before any worker starts, with
// results returned in x order — so every concurrency setting is
// bit-for-bit identical. SORN builds come from core.SharedBuilds and each
// worker reuses one pooled simulator across its points.
func Fig2f(cfg Fig2fConfig) ([]Fig2fPoint, error) {
	if !(cfg.Step > 0) {
		return nil, fmt.Errorf("experiments: Fig2f step %v must be positive", cfg.Step)
	}
	if cfg.SizeCap < 1 {
		return nil, fmt.Errorf("experiments: Fig2f size cap %d must be at least 1 cell", cfg.SizeCap)
	}
	if cfg.RunSim && (cfg.WarmupSlots < 0 || cfg.MeasureSlots < 1 || cfg.Backlog < 1) {
		return nil, fmt.Errorf("experiments: Fig2f simulation needs warmup slots ≥ 0, measure slots ≥ 1 and backlog ≥ 1 cell, got warmup slots %d, measure slots %d, backlog %d",
			cfg.WarmupSlots, cfg.MeasureSlots, cfg.Backlog)
	}
	xs := fig2fGrid(cfg.Step)
	size := workload.NewCapped(workload.WebSearch(), cfg.SizeCap)
	sw := observedSweep(cfg.SweepWorkers, cfg.Seed, cfg.Obs)
	pool := core.NewSimPool(sw.Workers(len(xs)))
	return sweep.Run(sw, len(xs), func(p sweep.Point) (Fig2fPoint, error) {
		return fig2fPoint(cfg, sw, len(xs), xs[p.Index], size, p, pool)
	})
}

// observedSweep returns the sweep settings for a sweep whose simulations
// may share one Observer. An Observer serves one simulation at a time
// and its run labels must land in point order, so a shared capture
// forces the sweep serial whatever concurrency was asked for.
func observedSweep(concurrency int, seed uint64, ob *obs.Observer) sweep.Config {
	if ob != nil {
		concurrency = 1
	}
	return sweep.Config{Concurrency: concurrency, Seed: seed}
}

func fig2fPoint(cfg Fig2fConfig, sw sweep.Config, points int, x float64, size workload.SizeDist, p sweep.Point, pool *core.SimPool) (Fig2fPoint, error) {
	nw, err := core.SharedBuilds.SORN(cfg.N, cfg.Nc, x)
	if err != nil {
		return Fig2fPoint{}, err
	}
	tm, err := nw.LocalityMatrix(x)
	if err != nil {
		return Fig2fPoint{}, err
	}
	fl, err := nw.Throughput(tm)
	if err != nil {
		return Fig2fPoint{}, err
	}
	pt := Fig2fPoint{X: x, Theory: model.SORNThroughput(x), Fluid: fl.Theta}
	if cfg.RunSim {
		if cfg.Obs != nil {
			cfg.Obs.StartRun(fmt.Sprintf("x=%.2f", x))
		}
		sim, err := pool.Acquire(p.Worker, nw, core.SimOptions{
			Seed: p.RNG.Uint64(),
			Obs:  cfg.Obs,
		})
		if err != nil {
			return Fig2fPoint{}, err
		}
		st, err := sim.RunSaturated(netsim.SaturationConfig{
			TM:            tm,
			Size:          size,
			TargetBacklog: cfg.Backlog,
			WarmupSlots:   cfg.WarmupSlots,
			MeasureSlots:  cfg.MeasureSlots,
		})
		if err != nil {
			return Fig2fPoint{}, err
		}
		pt.Sim = st.Throughput(cfg.N)
	}
	return pt, nil
}

// MismatchPoint is one entry of the locality-mismatch ablation (A1):
// the schedule was provisioned for locality XPlanned but the offered
// traffic has XActual.
type MismatchPoint struct {
	XPlanned, XActual float64
	Model             float64 // closed-form r at (XActual, q*(XPlanned))
	Fluid             float64 // measured θ on the built schedule
}

// LocalityMismatch quantifies §6's "healthy estimation error margin":
// how much worst-case throughput degrades when the estimated locality is
// wrong. The schedule is built for xPlanned; traffic has xActual.
// The sweep runs one point per planned locality (each shares one cached
// build across its actual-locality row), flattened in planned-major order.
func LocalityMismatch(n, nc int, planned, actual []float64, sweepWorkers int) ([]MismatchPoint, error) {
	if err := checkCliqueSplit("LocalityMismatch", n, nc); err != nil {
		return nil, err
	}
	rows, err := sweep.Run(sweep.Config{Concurrency: sweepWorkers}, len(planned), func(p sweep.Point) ([]MismatchPoint, error) {
		xp := planned[p.Index]
		nw, err := core.SharedBuilds.SORN(n, nc, xp)
		if err != nil {
			return nil, err
		}
		row := make([]MismatchPoint, 0, len(actual))
		for _, xa := range actual {
			tm, err := nw.LocalityMatrix(xa)
			if err != nil {
				return nil, err
			}
			fl, err := nw.Throughput(tm)
			if err != nil {
				return nil, err
			}
			row = append(row, MismatchPoint{
				XPlanned: xp,
				XActual:  xa,
				Model:    model.SORNThroughputAtQ(xa, nw.SORN.RealizedQ),
				Fluid:    fl.Theta,
			})
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	var out []MismatchPoint
	for _, row := range rows {
		out = append(out, row...)
	}
	return out, nil
}

// checkCliqueSplit rejects clique layouts whose closed-form r is
// undefined: one clique has no inter-clique traffic, and cliques of one
// node have no intra-clique circuits, so the realized q is 0.
func checkCliqueSplit(exp string, n, nc int) error {
	if nc < 2 || n/nc < 2 {
		return fmt.Errorf("experiments: %s over %d nodes in %d cliques has no intra/inter split to model (need at least 2 cliques of at least 2 nodes)", exp, n, nc)
	}
	return nil
}

// QSweepPoint is one oversubscription value of ablation A2.
type QSweepPoint struct {
	Q     float64
	Model float64
	Fluid float64
}

// QSweep shows why q* = 2/(1−x) is the throughput knee: worst-case
// throughput as a function of q at fixed locality.
func QSweep(n, nc int, x float64, qs []float64, sweepWorkers int) ([]QSweepPoint, error) {
	if err := checkCliqueSplit("QSweep", n, nc); err != nil {
		return nil, err
	}
	return sweep.Run(sweep.Config{Concurrency: sweepWorkers}, len(qs), func(p sweep.Point) (QSweepPoint, error) {
		nw, err := core.SharedBuilds.SORNWithQ(n, nc, qs[p.Index])
		if err != nil {
			return QSweepPoint{}, err
		}
		tm, err := nw.LocalityMatrix(x)
		if err != nil {
			return QSweepPoint{}, err
		}
		fl, err := nw.Throughput(tm)
		if err != nil {
			return QSweepPoint{}, err
		}
		return QSweepPoint{
			Q:     nw.SORN.RealizedQ,
			Model: model.SORNThroughputAtQ(x, nw.SORN.RealizedQ),
			Fluid: fl.Theta,
		}, nil
	})
}

// NcSweepRow generalizes Table 1 across clique counts (ablation A3).
type NcSweepRow struct {
	Nc                 int
	IntraDM, InterDM   int
	IntraLatNS         float64
	InterLatNS         float64
	MeasuredIntraWait  int // worst-case intra circuit wait of the built schedule
	TheoreticIntraWait int
}

// NcSweep reports the intra/inter latency split across clique counts at
// the Table 1 deployment, and cross-checks the built schedule's actual
// worst-case intra-circuit wait against the formula at a reduced scale
// (scale n = p.N is too large to build; we build at buildN).
func NcSweep(p model.Params, x float64, ncs []int, buildN int, sweepWorkers int) ([]NcSweepRow, error) {
	q := model.SORNQ(x)
	eligible := make([]int, 0, len(ncs))
	for _, nc := range ncs {
		if p.N%nc == 0 && buildN%nc == 0 {
			eligible = append(eligible, nc)
		}
	}
	return sweep.Run(sweep.Config{Concurrency: sweepWorkers}, len(eligible), func(pt sweep.Point) (NcSweepRow, error) {
		nc := eligible[pt.Index]
		rows, err := model.SORN(p, model.SORNParams{Nc: nc, X: x, TableVariant: true})
		if err != nil {
			return NcSweepRow{}, err
		}
		row := NcSweepRow{
			Nc:         nc,
			IntraDM:    rows[0].DeltaMSlots(),
			InterDM:    rows[1].DeltaMSlots(),
			IntraLatNS: rows[0].MinLatencyNS,
			InterLatNS: rows[1].MinLatencyNS,
		}
		if buildN/nc >= 2 {
			// Built directly, not through SharedBuilds: the MaxWeight cap is
			// not part of the cache key.
			built, err := schedule.BuildSORN(schedule.SORNConfig{N: buildN, Nc: nc, Q: q, MaxWeight: 64})
			if err != nil {
				return NcSweepRow{}, err
			}
			c := matching.Compile(built.Schedule)
			worst := 0
			for _, v := range built.Cliques.Members(0) {
				if v == 0 {
					continue
				}
				if w, ok := c.MaxWait(0, v); ok && w > worst {
					worst = w
				}
			}
			row.MeasuredIntraWait = worst
			row.TheoreticIntraWait = int(model.IntraCliqueDeltaM(buildN, nc, built.RealizedQ) + 0.999)
		}
		return row, nil
	})
}

// BlastRow compares failure blast radius (ablation A4, paper §6). Link
// blast radius is structurally (src=u pairs + dst=v pairs) the same for
// both designs; the modularity win the paper argues for shows up in the
// node blast radius — a failed node in a flat VLB design is an
// intermediate for *every* pair, while in SORN it only relays for its
// clique.
type BlastRow struct {
	Design    string
	NodeBlast float64 // fraction of pairs affected by one node failure
	IntraLink float64 // fraction affected by one intra-clique link failure
	InterLink float64 // fraction affected by one inter-clique link failure
}

// BlastRadius compares SORN against the flat 1D ORN. One sweep point per
// design row.
func BlastRadius(n, nc int, q float64, sweepWorkers int) ([]BlastRow, error) {
	return sweep.Run(sweep.Config{Concurrency: sweepWorkers}, 2, func(p sweep.Point) (BlastRow, error) {
		if p.Index == 0 {
			nw, err := core.SharedBuilds.SORNWithQ(n, nc, q)
			if err != nil {
				return BlastRow{}, err
			}
			sornNode, err := fluid.NodeBlastRadius(n, nw.Router, 1)
			if err != nil {
				return BlastRow{}, err
			}
			sornIntra, err := fluid.LinkBlastRadius(n, nw.Router, 0, 1)
			if err != nil {
				return BlastRow{}, err
			}
			// Node 0's inter-clique circuit into the next clique lands on the
			// same-local-index peer, node n/nc.
			sornInter, err := fluid.LinkBlastRadius(n, nw.Router, 0, n/nc)
			if err != nil {
				return BlastRow{}, err
			}
			return BlastRow{Design: fmt.Sprintf("SORN Nc=%d", nc),
				NodeBlast: sornNode, IntraLink: sornIntra, InterLink: sornInter}, nil
		}
		// The cached flat baseline, whose constructor rejects n < 2
		// rather than panicking in the schedule build.
		orn, err := core.SharedBuilds.ORN1D(n)
		if err != nil {
			return BlastRow{}, err
		}
		vlbNode, err := fluid.NodeBlastRadius(n, orn.Router, 1)
		if err != nil {
			return BlastRow{}, err
		}
		vlbLink, err := fluid.LinkBlastRadius(n, orn.Router, 0, 1)
		if err != nil {
			return BlastRow{}, err
		}
		return BlastRow{Design: "1D ORN (flat VLB)",
			NodeBlast: vlbNode, IntraLink: vlbLink, InterLink: vlbLink}, nil
	})
}

// AdaptationPhase is one epoch of the reconfiguration experiment (A5).
type AdaptationPhase struct {
	Name       string
	Locality   float64 // offered locality during the phase
	Q          float64 // oversubscription in force
	Throughput float64 // measured saturation r during the phase
}

// AdaptationConfig parameterizes the A5 reconfiguration experiment.
type AdaptationConfig struct {
	N, Nc      int
	X1, X2     float64 // offered locality before and after the shift
	PhaseSlots int64   // measured slots per phase (warmup is a third of it)
	Seed       uint64
	// Obs, when non-nil, captures the experiment's slot-resolved metric
	// series (labeled per phase) and event trace — phase boundaries,
	// control-plane replans, and the mid-run reconfiguration.
	Obs *obs.Observer
}

// Adaptation runs the semi-oblivious loop end to end in the packet
// simulator: traffic starts at locality X1 with a matching schedule, the
// workload shifts to X2 (mis-provisioned phase), then the control plane
// observes, re-plans q, and reconfigures (recovered phase).
func Adaptation(cfg AdaptationConfig) ([]AdaptationPhase, error) {
	n := cfg.N
	a, err := core.NewAdaptive(n, cfg.Nc, cfg.X1, false)
	if err != nil {
		return nil, err
	}
	a.Controller.Obs = cfg.Obs
	cl := a.Network.SORN.Cliques
	tm1, err := workload.Locality(cl, cfg.X1)
	if err != nil {
		return nil, err
	}
	if _, err := a.Adapt(tm1); err != nil {
		return nil, err
	}

	sim, err := a.Network.NewSim(core.SimOptions{Seed: cfg.Seed, Obs: cfg.Obs})
	if err != nil {
		return nil, err
	}
	size := workload.FixedSize(8)
	measure := func(name string, tm *workload.Matrix, x float64) (AdaptationPhase, error) {
		if cfg.Obs != nil {
			cfg.Obs.StartRun(name)
			cfg.Obs.Emit(obs.Event{Slot: sim.Slot(), Type: obs.EvPhaseBegin, Src: -1, Dst: -1, Note: name})
		}
		st, err := sim.RunSaturated(netsim.SaturationConfig{
			TM: tm, Size: size, TargetBacklog: 512,
			WarmupSlots: cfg.PhaseSlots / 3, MeasureSlots: cfg.PhaseSlots,
		})
		if err != nil {
			return AdaptationPhase{}, err
		}
		ph := AdaptationPhase{
			Name: name, Locality: x, Q: a.Network.SORN.RealizedQ,
			Throughput: st.Throughput(n),
		}
		// Reset counters for the next phase. The observability layer
		// diffs cumulative Stats per slot and clamps at resets, so its
		// series keeps running across phases.
		*st = netsim.Stats{}
		return ph, nil
	}

	var phases []AdaptationPhase
	ph, err := measure("matched (x1)", tm1, cfg.X1)
	if err != nil {
		return nil, err
	}
	phases = append(phases, ph)

	// Workload shifts; schedule still provisioned for X1.
	tm2, err := workload.Locality(cl, cfg.X2)
	if err != nil {
		return nil, err
	}
	ph, err = measure("shifted, stale schedule", tm2, cfg.X2)
	if err != nil {
		return nil, err
	}
	phases = append(phases, ph)

	// Control plane observes the new aggregate pattern and reconfigures.
	for i := 0; i < 5; i++ { // EWMA convergence
		if _, err := a.Adapt(tm2); err != nil {
			return nil, err
		}
	}
	if err := sim.Reconfigure(a.Network.Schedule, a.Network.Router); err != nil {
		return nil, err
	}
	ph, err = measure("shifted, adapted schedule", tm2, cfg.X2)
	if err != nil {
		return nil, err
	}
	phases = append(phases, ph)
	return phases, nil
}

// GravityPoint is one q value of the gravity ablation (A6).
type GravityPoint struct {
	Q     float64
	Theta float64
}

// Gravity evaluates SORN robustness to non-uniform aggregated demand:
// worst-case throughput of the clique schedule under a gravity traffic
// matrix (cluster masses as given), across oversubscription ratios.
func Gravity(n, nc int, mass []float64, qs []float64, sweepWorkers int) ([]GravityPoint, error) {
	return sweep.Run(sweep.Config{Concurrency: sweepWorkers}, len(qs), func(p sweep.Point) (GravityPoint, error) {
		nw, err := core.SharedBuilds.SORNWithQ(n, nc, qs[p.Index])
		if err != nil {
			return GravityPoint{}, err
		}
		tm, err := workload.Gravity(nw.SORN.Cliques, mass)
		if err != nil {
			return GravityPoint{}, err
		}
		fl, err := nw.Throughput(tm)
		if err != nil {
			return GravityPoint{}, err
		}
		return GravityPoint{Q: nw.SORN.RealizedQ, Theta: fl.Theta}, nil
	})
}

// ExpressivityRow compares the uniform inter-clique schedule against the
// demand-aware (Birkhoff–von Neumann) schedule of §5 "Expressivity"
// under a partnered-clique traffic pattern (ablation A7).
type ExpressivityRow struct {
	Design string
	Theta  float64
	// MeanHops under the pattern (bandwidth tax).
	MeanHops float64
}

// Expressivity builds both schedules for the same q and measures
// worst-case throughput under a PairAffinity matrix (intra fraction xi,
// partner fraction xp).
func Expressivity(n, nc int, q, xi, xp float64) ([]ExpressivityRow, error) {
	uniform, err := schedule.BuildSORN(schedule.SORNConfig{N: n, Nc: nc, Q: q})
	if err != nil {
		return nil, err
	}
	tm, err := workload.PairAffinity(uniform.Cliques, xi, xp)
	if err != nil {
		return nil, err
	}
	uniRes, err := fluid.Solve(uniform.Schedule, routing.NewSORN(uniform), tm)
	if err != nil {
		return nil, err
	}

	aware, err := schedule.BuildSORNDemandAware(schedule.DemandAwareConfig{
		N: n, Nc: nc, Q: q,
		Demand: tm.Aggregate(uniform.Cliques),
		Floor:  0.1,
	})
	if err != nil {
		return nil, err
	}
	awareRes, err := fluid.Solve(aware.Schedule, routing.NewSORN(aware), tm)
	if err != nil {
		return nil, err
	}
	return []ExpressivityRow{
		{Design: "uniform inter-clique", Theta: uniRes.Theta, MeanHops: uniRes.MeanHops},
		{Design: "demand-aware (BvN)", Theta: awareRes.Theta, MeanHops: awareRes.MeanHops},
	}, nil
}

// LatencyRow is one design/class of the packet-level latency comparison.
type LatencyRow struct {
	Design   string
	Class    string // "intra-clique", "inter-clique", or "all"
	P50us    float64
	P99us    float64
	MeanHops float64
}

// LatencyComparison measures what Table 1 derives analytically: cell
// latency under light load for SORN (intra- and inter-clique classes
// separately), the flat 1D ORN, and the 2D optimal ORN, all at the same
// node count, slot length, propagation delay, and uplink (plane) count.
// n must be a perfect square (for the 2D ORN) and divisible by nc.
// The four design/class runs are independent fixed-seed simulations, so
// they sweep as four points sharing cached builds and pooled simulators.
func LatencyComparison(n, nc, planes int, load float64, seed uint64, sweepWorkers int) ([]LatencyRow, error) {
	const slotNS, propNS = 100, 500
	sorn, err := core.SharedBuilds.SORN(n, nc, 0.56)
	if err != nil {
		return nil, err
	}
	intraTM, err := workload.Locality(sorn.SORN.Cliques, 1)
	if err != nil {
		return nil, err
	}
	interTM, err := workload.Locality(sorn.SORN.Cliques, 0)
	if err != nil {
		return nil, err
	}
	orn1, err := core.SharedBuilds.ORN1D(n)
	if err != nil {
		return nil, err
	}
	orn2, err := core.SharedBuilds.ORN(n, 2)
	if err != nil {
		return nil, err
	}
	runs := []struct {
		nw            *core.Network
		tm            *workload.Matrix
		design, class string
	}{
		{sorn, intraTM, "SORN", "intra-clique"},
		{sorn, interTM, "SORN", "inter-clique"},
		{orn1, workload.Uniform(n), "1D ORN (Sirius)", "all"},
		{orn2, workload.Uniform(n), "2D ORN", "all"},
	}
	sw := sweep.Config{Concurrency: sweepWorkers, Seed: seed}
	pool := core.NewSimPool(sw.Workers(len(runs)))
	return sweep.Run(sw, len(runs), func(p sweep.Point) (LatencyRow, error) {
		r := runs[p.Index]
		opts := core.SimOptions{
			SlotNS: slotNS, PropNS: propNS, Seed: seed,
			LatencySampleEvery: 1, Planes: planes,
		}
		sim, err := pool.Acquire(p.Worker, r.nw, opts)
		if err != nil {
			return LatencyRow{}, err
		}
		st, err := core.RunOpenLoopOn(sim, opts, r.tm, workload.FixedSize(1), load, 30000)
		if err != nil {
			return LatencyRow{}, err
		}
		toUS := float64(slotNS) / 1000
		return LatencyRow{
			Design:   r.design,
			Class:    r.class,
			P50us:    st.LatencySlots.Percentile(50) * toUS,
			P99us:    st.LatencySlots.Percentile(99) * toUS,
			MeanHops: st.MeanHops(),
		}, nil
	})
}

// PlanePoint is one uplink count of the plane sweep (U1).
type PlanePoint struct {
	Planes int
	P50us  float64
	P99us  float64
}

// PlaneSweepConfig parameterizes the uplink sweep.
type PlaneSweepConfig struct {
	N, Nc  int
	X      float64 // locality the schedule and traffic are built for
	Planes []int   // uplink counts to sweep
	Load   float64 // offered load per node
	Seed   uint64
	// SweepWorkers bounds how many plane counts simulate concurrently
	// (0 = one per CPU, 1 = serial); bit-identical results for every value.
	SweepWorkers int
}

// PlaneSweep measures how parallel phase-staggered uplinks divide the
// schedule-wait component of latency — the /uplinks term Table 1's
// minimum-latency column depends on. One sweep point per plane count; the
// pooled simulator resizes its delay ring across Reset.
func PlaneSweep(cfg PlaneSweepConfig) ([]PlanePoint, error) {
	nw, err := core.SharedBuilds.SORN(cfg.N, cfg.Nc, cfg.X)
	if err != nil {
		return nil, err
	}
	tm, err := nw.LocalityMatrix(cfg.X)
	if err != nil {
		return nil, err
	}
	sw := sweep.Config{Concurrency: cfg.SweepWorkers, Seed: cfg.Seed}
	pool := core.NewSimPool(sw.Workers(len(cfg.Planes)))
	return sweep.Run(sw, len(cfg.Planes), func(p sweep.Point) (PlanePoint, error) {
		opts := core.SimOptions{
			SlotNS: 100, PropNS: 500, Seed: cfg.Seed,
			LatencySampleEvery: 1, Planes: cfg.Planes[p.Index],
		}
		sim, err := pool.Acquire(p.Worker, nw, opts)
		if err != nil {
			return PlanePoint{}, err
		}
		st, err := core.RunOpenLoopOn(sim, opts, tm, workload.FixedSize(1), cfg.Load, 25000)
		if err != nil {
			return PlanePoint{}, err
		}
		return PlanePoint{
			Planes: cfg.Planes[p.Index],
			P50us:  st.LatencySlots.Percentile(50) * 0.1,
			P99us:  st.LatencySlots.Percentile(99) * 0.1,
		}, nil
	})
}

// SyncRow is one slot size of the synchronization-overhead model (S1).
type SyncRow struct {
	SlotNS   float64
	SORNEff  float64 // capacity-weighted slot efficiency of SORN
	FlatEff  float64 // flat 1D ORN efficiency (global guard every slot)
	SORNThpt float64 // r(x) × efficiency
	FlatThpt float64 // 0.5 × efficiency
}

// SyncOverhead evaluates §6's synchronization argument: smaller sync
// domains tolerate shorter slots. guardPerLevelNS is the per-sync-tree-
// level guard interval.
func SyncOverhead(n, nc int, x, guardPerLevelNS float64, slotsNS []float64) []SyncRow {
	q := model.SORNQ(x)
	r := model.SORNThroughput(x)
	var out []SyncRow
	for _, slot := range slotsNS {
		se := model.SORNSyncEfficiency(n, nc, q, slot, guardPerLevelNS)
		fe := model.SyncEfficiency(n, slot, guardPerLevelNS)
		out = append(out, SyncRow{
			SlotNS:   slot,
			SORNEff:  se,
			FlatEff:  fe,
			SORNThpt: r * se,
			FlatThpt: 0.5 * fe,
		})
	}
	return out
}

// StateRow is one network size of the NIC-state scaling analysis (S2).
type StateRow struct {
	N              int
	SORNPeriod     int
	SORNStateBytes int
	FlatPeriod     int
	FlatStateBytes int
}

// StateScaling reports the per-node hardware state (Figure 2c: one
// wavelength index per schedule slot plus one queue descriptor per
// neighbor) for SORN versus the flat 1D ORN as the network grows — the
// §5 argument that SORN's state "scales well with system size". The
// clique count grows with sqrt-ish scaling (nc = N/64 capped to keep
// cliques of 64, as in Table 1).
func StateScaling(ns []int, x float64) ([]StateRow, error) {
	q := model.SORNQ(x)
	var out []StateRow
	for _, n := range ns {
		nc := n / 64
		if nc < 2 {
			nc = 2
		}
		built, err := schedule.BuildSORN(schedule.SORNConfig{N: n, Nc: nc, Q: q})
		if err != nil {
			return nil, err
		}
		k := n / nc
		neighbors := (k - 1) + (nc - 1)
		period := built.Schedule.Period()
		out = append(out, StateRow{
			N:              n,
			SORNPeriod:     period,
			SORNStateBytes: 2*period + 16*neighbors,
			FlatPeriod:     n - 1,
			FlatStateBytes: 2*(n-1) + 16*(n-1),
		})
	}
	return out, nil
}

// DiurnalPoint is one epoch of the diurnal-tracking experiment (A8).
type DiurnalPoint struct {
	Epoch     int
	TrueX     float64 // offered locality this epoch
	EstimateX float64 // controller's EWMA estimate
	AdaptiveR float64 // fluid θ of the controller's schedule
	StaticR   float64 // fluid θ of a schedule fixed at the mean locality
	ClairvoyR float64 // fluid θ of a schedule rebuilt with perfect knowledge
}

// DiurnalConfig parameterizes the A8 diurnal-tracking experiment.
type DiurnalConfig struct {
	N, Nc  int
	Lo, Hi float64 // locality oscillation bounds
	Period int     // epochs per sinusoid cycle
	Epochs int     // total epochs to run
	// SweepWorkers bounds how many epochs' fluid evaluations run
	// concurrently (0 = one per CPU, 1 = serial); the stateful controller
	// pass always runs serially, so results are bit-identical for every
	// value.
	SweepWorkers int
	// Obs, when non-nil, records each control-plane replan decision
	// (estimated x, chosen q*, predicted r) as trace events.
	Obs *obs.Observer
}

// Diurnal drives the control loop through a sinusoidal locality cycle
// (the §6 "diurnal utilization patterns" direction): locality oscillates
// between Lo and Hi over Period epochs for Epochs epochs. The adaptive
// controller observes each epoch's aggregate TM and re-plans q; the
// static design is provisioned once for the mean locality.
func Diurnal(cfg DiurnalConfig) ([]DiurnalPoint, error) {
	n, nc := cfg.N, cfg.Nc
	ctl, err := controlplane.NewController(n, nc, 0.5)
	if err != nil {
		return nil, err
	}
	ctl.Obs = cfg.Obs
	cl, err := schedule.EqualCliques(n, nc)
	if err != nil {
		return nil, err
	}
	mean := (cfg.Lo + cfg.Hi) / 2
	static, err := core.SharedBuilds.SORN(n, nc, mean)
	if err != nil {
		return nil, err
	}

	// Pass 1 — serial: the controller is stateful (EWMA estimate, replan
	// hysteresis, trace events), so every epoch observes and plans in
	// order, exactly as the control plane would live.
	type epochPlan struct {
		x, estX float64
		tm      *workload.Matrix
		built   *schedule.SORN
	}
	plans := make([]epochPlan, cfg.Epochs)
	for e := 0; e < cfg.Epochs; e++ {
		x := mean + (cfg.Hi-cfg.Lo)/2*math.Sin(2*math.Pi*float64(e)/float64(cfg.Period))
		tm, err := workload.Locality(cl, x)
		if err != nil {
			return nil, err
		}
		if err := ctl.Observe(tm); err != nil {
			return nil, err
		}
		plan, err := ctl.PlanNext()
		if err != nil {
			return nil, err
		}
		if err := ctl.Apply(plan); err != nil {
			return nil, err
		}
		plans[e] = epochPlan{x: x, estX: plan.X, tm: tm, built: plan.Built}
	}

	// Pass 2 — swept: the three fluid evaluations per epoch are pure
	// functions of the recorded plan, independent across epochs. The
	// clairvoyant builds hit the cache every repeated Period.
	return sweep.Run(sweep.Config{Concurrency: cfg.SweepWorkers}, cfg.Epochs, func(p sweep.Point) (DiurnalPoint, error) {
		ep := plans[p.Index]
		adaptive, err := fluid.Solve(ep.built.Schedule, routing.NewSORN(ep.built), ep.tm)
		if err != nil {
			return DiurnalPoint{}, err
		}
		staticRes, err := fluid.Solve(static.Schedule, static.Router, ep.tm)
		if err != nil {
			return DiurnalPoint{}, err
		}
		clair, err := core.SharedBuilds.SORN(n, nc, ep.x)
		if err != nil {
			return DiurnalPoint{}, err
		}
		clairRes, err := clair.Throughput(ep.tm)
		if err != nil {
			return DiurnalPoint{}, err
		}
		return DiurnalPoint{
			Epoch:     p.Index,
			TrueX:     ep.x,
			EstimateX: ep.estX,
			AdaptiveR: adaptive.Theta,
			StaticR:   staticRes.Theta,
			ClairvoyR: clairRes.Theta,
		}, nil
	})
}

// DiurnalSummary averages a diurnal run into three mean throughputs.
func DiurnalSummary(pts []DiurnalPoint) (adaptive, static, clairvoyant float64) {
	for _, p := range pts {
		adaptive += p.AdaptiveR
		static += p.StaticR
		clairvoyant += p.ClairvoyR
	}
	n := float64(len(pts))
	return adaptive / n, static / n, clairvoyant / n
}

// FCTPoint is one (design, load) cell of the FCT-vs-load experiment (F1).
type FCTPoint struct {
	Design string
	Load   float64
	P50us  float64
	P99us  float64
	Done   int64 // completed flows in the window
}

// FCTConfig parameterizes the F1 FCT-vs-load experiment.
type FCTConfig struct {
	N, Nc int
	X     float64 // locality SORN is provisioned for
	Loads []float64
	Slots int64
	Seed  uint64
	// Deprecated: Workers is ignored; every simulation steps serially.
	// It stays only while the benchmark module still sets it (ROADMAP
	// items 3 and 5).
	Workers int
	// SweepWorkers bounds how many (design, load) cells simulate
	// concurrently (0 = one per CPU, 1 = serial); bit-identical results
	// for every value. Forced serial when Obs is set — one Observer serves
	// one simulation at a time and its run labels must land in order.
	SweepWorkers int
	// Obs, when non-nil, captures every run's metric series, labeled
	// "design@load" so one capture carries the whole sweep.
	Obs *obs.Observer
}

// FCTvsLoad measures completion times of latency-sensitive short flows
// (16 cells, the class Table 1's latency column is about) under open-loop
// traffic at increasing offered loads, for SORN (provisioned at the
// traffic's locality) and the flat 1D ORN. SORN's shorter schedule cycle
// keeps short-flow FCTs low; with heavy-tailed bulk mixes at higher
// loads, queueing dominates medians for both designs and the comparison
// belongs to the throughput experiments instead.
func FCTvsLoad(cfg FCTConfig) ([]FCTPoint, error) {
	sorn, err := core.SharedBuilds.SORN(cfg.N, cfg.Nc, cfg.X)
	if err != nil {
		return nil, err
	}
	sornTM, err := sorn.LocalityMatrix(cfg.X)
	if err != nil {
		return nil, err
	}
	flat, err := core.SharedBuilds.ORN1D(cfg.N)
	if err != nil {
		return nil, err
	}
	flatTM := workload.Uniform(cfg.N)
	size := workload.FixedSize(16)

	type cell struct {
		nw     *core.Network
		tm     *workload.Matrix
		design string
		load   float64
	}
	cells := make([]cell, 0, 2*len(cfg.Loads))
	for _, load := range cfg.Loads {
		cells = append(cells,
			cell{sorn, sornTM, "SORN", load},
			cell{flat, flatTM, "1D ORN", load})
	}

	sw := observedSweep(cfg.SweepWorkers, cfg.Seed, cfg.Obs)
	pool := core.NewSimPool(sw.Workers(len(cells)))
	return sweep.Run(sw, len(cells), func(p sweep.Point) (FCTPoint, error) {
		c := cells[p.Index]
		if cfg.Obs != nil {
			cfg.Obs.StartRun(fmt.Sprintf("%s@%.2f", c.design, c.load))
		}
		opts := core.SimOptions{
			SlotNS: 100, PropNS: 500, Seed: cfg.Seed, LatencySampleEvery: 16,
			Obs: cfg.Obs,
		}
		sim, err := pool.Acquire(p.Worker, c.nw, opts)
		if err != nil {
			return FCTPoint{}, err
		}
		st, err := core.RunOpenLoopOn(sim, opts, c.tm, size, c.load, cfg.Slots)
		if err != nil {
			return FCTPoint{}, err
		}
		return FCTPoint{
			Design: c.design,
			Load:   c.load,
			P50us:  st.FCTSlots.Percentile(50) * 0.1,
			P99us:  st.FCTSlots.Percentile(99) * 0.1,
			Done:   st.CompletedFlows,
		}, nil
	})
}
