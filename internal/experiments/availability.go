package experiments

import (
	"fmt"

	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/faultplan"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/routing"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// AvailabilityConfig parameterizes the availability experiment: open-loop
// traffic over a scripted fault plan, comparing the full semi-oblivious
// loop (demand-aware planning with graceful degradation to the oblivious
// fallback) against the static uniform oblivious schedule.
type AvailabilityConfig struct {
	N, Nc int
	// X is the offered locality of the traffic (and the initial SORN
	// provisioning point).
	X float64
	// Load is the offered load as a fraction of node bandwidth.
	Load float64
	// Slots is the run length. Window is the reporting granularity in
	// slots (default Slots/50); EpochSlots the control-loop cadence
	// (default 500).
	Slots      int64
	Window     int64
	EpochSlots int64
	// OutageStart/OutageEnd bound a telemetry outage: control epochs in
	// [OutageStart, OutageEnd) receive no traffic observations, so the
	// estimate goes stale and the controller must degrade. Zero values
	// mean telemetry stays up for the whole run.
	OutageStart, OutageEnd int64
	// Plan is the data-plane fault schedule (may be empty). Both designs
	// replay the identical plan.
	Plan *faultplan.Plan
	Seed uint64
	// Deprecated: Workers is ignored; every simulation steps serially.
	// It stays only while the benchmark module still sets it (ROADMAP
	// items 3 and 5).
	Workers int
	// SweepWorkers bounds how many of the two design runs execute
	// concurrently (0 = one per CPU, 1 = serial); bit-identical results
	// for every value. Forced serial when Obs is set — one Observer serves
	// one simulation at a time and its run labels must land in order.
	SweepWorkers int
	// Obs, when non-nil, captures both runs' metric series and the
	// fault/fallback/recovery event trace.
	Obs *obs.Observer
}

func (cfg AvailabilityConfig) withDefaults() AvailabilityConfig {
	if cfg.Window == 0 {
		cfg.Window = cfg.Slots / 50
		if cfg.Window == 0 {
			cfg.Window = 1
		}
	}
	if cfg.EpochSlots == 0 {
		cfg.EpochSlots = 500
	}
	return cfg
}

// AvailabilityWindow is one reporting window of one design's time series.
type AvailabilityWindow struct {
	Slot       int64   // window end (exclusive)
	Throughput float64 // delivered cells per node per slot within the window
	Backlog    int64   // queued cells at window end
	Lost       int64   // cells lost to failures within the window
	Dropped    int64   // cells dropped by full queues within the window
	// Degraded reports whether the control plane was on the oblivious
	// fallback at window end (always false for the static baseline).
	Degraded bool
}

// AvailabilityResult carries both time series and the degradation
// lifecycle observed during the SORN run.
type AvailabilityResult struct {
	SORN      []AvailabilityWindow
	Oblivious []AvailabilityWindow
	// FellBack / Recovered report whether the controller entered
	// degraded mode at least once, and whether it subsequently resumed
	// demand-aware operation.
	FellBack  bool
	Recovered bool
	// SORNStats / ObliviousStats are the cumulative end-of-run stats.
	SORNStats      netsim.Stats
	ObliviousStats netsim.Stats
}

// Availability runs the availability experiment. Both designs see the
// same Poisson workload (same seed) and the same fault plan; the SORN
// run additionally runs the resilient control loop every EpochSlots,
// feeding it the offered matrix as its telemetry except during the
// configured outage. The throughput/backlog/loss series shows the
// fallback costing SORN its demand-aware edge — but not its worst-case
// floor — while faults and telemetry outages are in effect, and the
// recovery restoring it.
func Availability(cfg AvailabilityConfig) (*AvailabilityResult, error) {
	cfg = cfg.withDefaults()
	if cfg.Slots <= 0 {
		return nil, fmt.Errorf("experiments: availability needs positive Slots, got %d", cfg.Slots)
	}
	if cfg.Window < 0 || cfg.EpochSlots < 0 {
		return nil, fmt.Errorf("experiments: availability Window (%d) and EpochSlots (%d) must not be negative",
			cfg.Window, cfg.EpochSlots)
	}
	if cfg.OutageStart > cfg.OutageEnd {
		return nil, fmt.Errorf("experiments: availability outage starts at slot %d, after its end %d",
			cfg.OutageStart, cfg.OutageEnd)
	}
	if cfg.Plan == nil {
		var err error
		cfg.Plan, err = faultplan.New(cfg.N, nil)
		if err != nil {
			return nil, err
		}
	}
	if cfg.Plan.N() != cfg.N {
		return nil, fmt.Errorf("experiments: fault plan over %d nodes, experiment over %d", cfg.Plan.N(), cfg.N)
	}

	// Semi-oblivious design: initial schedule provisioned at the offered
	// locality, resilient controller re-planning every epoch. The static
	// uniform oblivious baseline is the schedule the fallback uses, with
	// no control loop at all. The two design runs are independent (same
	// workload seed, same fault plan, different fabrics), so they sweep as
	// two points over cached builds and one simulator per sweep worker: a
	// serial sweep resets the first design's simulator for the second,
	// reusing its flow arena, cell pools and delay ring. A cached build
	// stays read-only here: mid-run Reconfigure swaps the *simulator's*
	// schedule, never the shared Network's.
	sorn, err := core.SharedBuilds.SORN(cfg.N, cfg.Nc, cfg.X)
	if err != nil {
		return nil, err
	}
	tm, err := sorn.LocalityMatrix(cfg.X)
	if err != nil {
		return nil, err
	}
	obl, err := core.SharedBuilds.SORNWithQ(cfg.N, cfg.Nc, 2)
	if err != nil {
		return nil, err
	}

	// The workload stream is seeded independently of the sims and shared
	// read-only by both designs: identical arrivals, identical faults,
	// different fabrics.
	gen, err := workload.NewPoissonFlows(tm, workload.FixedSize(8), cfg.Load, cfg.Seed+1)
	if err != nil {
		return nil, err
	}
	flows := gen.Window(0, cfg.Slots)

	type designRun struct {
		windows []AvailabilityWindow
		stats   netsim.Stats
	}
	sw := observedSweep(cfg.SweepWorkers, cfg.Seed, cfg.Obs)
	pool := core.NewSimPool(sw.Workers(2))
	runs, err := sweep.Run(sw, 2, func(p sweep.Point) (designRun, error) {
		nw, label := obl, "oblivious"
		var resil *controlplane.Resilient
		if p.Index == 0 {
			ctl, err := controlplane.NewController(cfg.N, cfg.Nc, 0.5)
			if err != nil {
				return designRun{}, err
			}
			ctl.Obs = cfg.Obs
			nw, label, resil = sorn, "SORN+fallback", controlplane.NewResilient(ctl)
		}
		if cfg.Obs != nil {
			cfg.Obs.StartRun(label)
		}
		sim, err := pool.Acquire(p.Worker, nw, core.SimOptions{
			Seed: cfg.Seed, LatencySampleEvery: 16, Obs: cfg.Obs,
		})
		if err != nil {
			return designRun{}, err
		}
		w, st, err := runAvailability(cfg, sim, tm, flows, resil)
		return designRun{windows: w, stats: st}, err
	})
	if err != nil {
		return nil, err
	}

	res := &AvailabilityResult{
		SORN: runs[0].windows, SORNStats: runs[0].stats,
		Oblivious: runs[1].windows, ObliviousStats: runs[1].stats,
	}
	for _, w := range res.SORN {
		if w.Degraded {
			res.FellBack = true
		} else if res.FellBack {
			res.Recovered = true
		}
	}
	return res, nil
}

// runAvailability drives one design through the fault plan, running
// flows (sorted by arrival, never modified) through RunOpenLoop in
// segments. resil is nil for the static baseline. A segment starts with
// the slot's fault events, then the control epoch, before RunOpenLoop
// injects the slot's arrivals and steps — so a slot's failures affect
// that slot's transmissions and a control decision at slot t plans
// against everything observed strictly before t. It ends at the next
// fault event, control epoch, window end or the end of the run, where
// the window is reported. sim is fresh or reset; the returned Stats is a
// value copy, which stays valid when sim is reset for the next design.
func runAvailability(cfg AvailabilityConfig, sim *netsim.Sim, tm *workload.Matrix,
	flows []workload.Flow, resil *controlplane.Resilient) ([]AvailabilityWindow, netsim.Stats, error) {
	drv := faultplan.NewDriver(cfg.Plan)

	sim.StartMeasuring()
	var out []AvailabilityWindow
	var prev netsim.Stats
	for t := int64(0); t < cfg.Slots; {
		drv.Advance(sim, t)
		end := min((t/cfg.Window+1)*cfg.Window, cfg.Slots)
		if resil != nil {
			if t%cfg.EpochSlots == 0 {
				// Telemetry outage: the fabric keeps running, the
				// controller just stops hearing about it.
				if t < cfg.OutageStart || t >= cfg.OutageEnd {
					if err := resil.C.Observe(tm); err != nil {
						return nil, netsim.Stats{}, err
					}
				}
				dec, err := resil.Decide()
				if err != nil {
					return nil, netsim.Stats{}, err
				}
				if dec.Changed {
					if err := sim.Reconfigure(dec.Plan.Built.Schedule, routing.NewSORN(dec.Plan.Built)); err != nil {
						return nil, netsim.Stats{}, err
					}
				}
			}
			end = min(end, (t/cfg.EpochSlots+1)*cfg.EpochSlots)
		}
		if fs, ok := drv.NextSlot(); ok && fs < end {
			end = fs
		}
		var err error
		if flows, err = sim.RunOpenLoop(flows, end); err != nil {
			return nil, netsim.Stats{}, err
		}
		if end%cfg.Window == 0 || end == cfg.Slots {
			cur := *sim.Stats()
			span := end - (end-1)/cfg.Window*cfg.Window
			out = append(out, AvailabilityWindow{
				Slot:       end,
				Throughput: float64(cur.DeliveredCells-prev.DeliveredCells) / (float64(cfg.N) * float64(span)),
				Backlog:    sim.Backlog(),
				Lost:       cur.LostCells - prev.LostCells,
				Dropped:    cur.DroppedCells - prev.DroppedCells,
				Degraded:   resil != nil && resil.Degraded(),
			})
			prev = cur
		}
		t = end
	}
	return out, *sim.Stats(), nil
}
