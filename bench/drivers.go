package main

// The traced drivers run the same work as the experiments entry points
// the benchmark measures — same sweep, cached builds, pooled simulators,
// rng streams and slot loops — but call each layer's public functions
// themselves, so every call can be timed from outside. The driver tests
// hold each one bit-identical to its entry point. They cover the
// configurations the benchmark runs: pooled simulators on the active
// engine, and no observer beyond the ones named here.

import (
	"fmt"

	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faultplan"
	"repro/internal/fluid"
	"repro/internal/model"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/routing"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// fig2fGrid is the x grid experiments.Fig2f sweeps: x_i = i·step,
// ending at exactly 1.
func fig2fGrid(step float64) []float64 {
	var xs []float64
	for i := 0; ; i++ {
		x := float64(i) * step
		if x >= 1 {
			return append(xs, 1)
		}
		xs = append(xs, x)
	}
}

// fig2fTraced is experiments.Fig2f. Each simulated point carries a phase
// observer (which never changes Stats) and runs RunSaturated in chunks.
func fig2fTraced(cfg experiments.Fig2fConfig, tr *tracer, parent int) ([]experiments.Fig2fPoint, error) {
	if !(cfg.Step > 0) {
		return nil, fmt.Errorf("experiments: Fig2f step %v must be positive", cfg.Step)
	}
	xs := fig2fGrid(cfg.Step)
	var size workload.SizeDist
	_ = tr.time("workload.tm", parent, func() error {
		size = workload.NewCapped(workload.WebSearch(), cfg.SizeCap)
		return nil
	})
	sw := sweep.Config{Concurrency: cfg.SweepWorkers, Seed: cfg.Seed}
	pool := core.NewSimPool(sw.Workers(len(xs)))
	return sweep.Run(sw, len(xs), func(p sweep.Point) (experiments.Fig2fPoint, error) {
		ps := tr.begin("sweep.point", parent)
		defer tr.end(ps)
		x := xs[p.Index]
		var (
			nw  *core.Network
			tm  *workload.Matrix
			fl  *fluid.Result
			sim *netsim.Sim
		)
		err := tr.time("core.build", ps, func() (err error) {
			nw, err = core.SharedBuilds.SORN(cfg.N, cfg.Nc, x)
			return err
		})
		if err == nil {
			err = tr.time("workload.tm", ps, func() (err error) {
				tm, err = nw.LocalityMatrix(x)
				return err
			})
		}
		if err == nil {
			err = tr.time("fluid.solve", ps, func() (err error) {
				fl, err = nw.Throughput(tm)
				return err
			})
		}
		if err != nil {
			return experiments.Fig2fPoint{}, err
		}
		pt := experiments.Fig2fPoint{X: x, Theory: model.SORNThroughput(x), Fluid: fl.Theta}
		if !cfg.RunSim {
			return pt, nil
		}
		ob := phaseObserver()
		opts := core.SimOptions{
			Seed:          p.RNG.Uint64(),
			WarmupSlots:   cfg.WarmupSlots,
			MeasureSlots:  cfg.MeasureSlots,
			TargetBacklog: cfg.Backlog,
			Workers:       sw.SimWorkers(len(xs), cfg.Workers),
			Obs:           ob,
		}
		if err := tr.time("core.acquire", ps, func() (err error) {
			sim, err = pool.Acquire(p.Worker, nw, opts)
			return err
		}); err != nil {
			return experiments.Fig2fPoint{}, err
		}
		st, err := runSaturatedChunked(sim, netsim.SaturationConfig{
			TM: tm, Size: size, TargetBacklog: cfg.Backlog,
			WarmupSlots: cfg.WarmupSlots, MeasureSlots: cfg.MeasureSlots,
		}, ob, tr, ps)
		if err != nil {
			return experiments.Fig2fPoint{}, err
		}
		pt.Sim = st.Throughput(cfg.N)
		return pt, nil
	})
}

// runSaturatedChunked is one RunSaturated as a first call covering the
// warmup and one chunk, then one call per chunk; RunSaturated continues
// from the simulator's slot, so the calls add up to the single call.
// Inject and Step interleave inside each call, so their times are the
// calls' time split by ob's phase samples. The split uses the later
// calls' samples only: slot 0 is always sampled and holds the one-off
// fill of every source's backlog, which scaled by 16 would swamp the
// inject estimate.
func runSaturatedChunked(sim *netsim.Sim, sc netsim.SaturationConfig, ob *obs.Observer, tr *tracer, parent int) (*netsim.Stats, error) {
	c := tr.chunk(parent, sim.Slot())
	call := sc
	call.MeasureSlots = min(chunkSlots, sc.MeasureSlots)
	st, err := sim.RunSaturated(call)
	if err != nil {
		return nil, err
	}
	c.op(opRunSat, 1)
	c.flush(sim.Slot())
	first, ph1, slot1 := c.totalSum[opRunSat], samplePhases(ob), sim.Slot()
	inj1, sent1 := st.InjectedCells, st.SentCells
	var durs []float64 // per-slot time of each later chunk
	for done := call.MeasureSlots; done < sc.MeasureSlots; done += call.MeasureSlots {
		call.WarmupSlots, call.MeasureSlots = 0, min(chunkSlots, sc.MeasureSlots-done)
		before := c.totalSum[opRunSat]
		if _, err := sim.RunSaturated(call); err != nil {
			return nil, err
		}
		c.op(opRunSat, 1)
		durs = append(durs, float64(c.totalSum[opRunSat]-before)/float64(call.MeasureSlots))
		c.flush(sim.Slot())
	}

	// The later calls are all inside the measured window, so their
	// injections and transmissions give the per-cell and per-hop rates
	// directly; the whole run's split scales theirs by total time.
	slots, total := sim.Slot(), float64(c.totalSum[opRunSat])
	if slots == slot1 { // no later calls: split the first one, slot 0 and all
		ph1, slot1, first, inj1, sent1 = phaseSample{}, 0, 0, 0, 0
	}
	later, laterSlots, laterTotal := samplePhases(ob).since(ph1), slots-slot1, total-float64(first)
	inject := later.estimate(obs.PhaseInject, laterSlots)
	tr.add("inject.meas_ns", inject)
	tr.add("inject.meas_cells", float64(st.InjectedCells-inj1))
	tr.add("hop.step_ns", laterTotal-inject)
	tr.add("hop.sent", float64(st.SentCells-sent1))
	stepShare := (laterTotal - inject) / laterTotal
	for _, d := range durs {
		tr.sample("netsim.step_ns", d*stepShare)
	}
	scale := total / laterTotal
	tr.addNS("netsim.inject", inject*scale, 0)
	tr.addNS("netsim.step", (laterTotal-inject)*scale, slots)
	addStepPhases(tr, later, laterSlots, scale)
	addSimCounts(tr, sim, 0)
	return st, nil
}

// addStepPhases charges the land and transmit estimates over steps
// stepped slots, times scale. The workloads run serial simulations, so
// there is no shard merge to charge.
func addStepPhases(tr *tracer, ph phaseSample, steps int64, scale float64) {
	for _, p := range []obs.Phase{obs.PhaseLand, obs.PhaseTransmit} {
		tr.addNS("netsim."+p.String(), ph.estimate(p, steps)*scale, 0)
	}
}

// addSimCounts reports a finished simulation's simulated-side counts.
func addSimCounts(tr *tracer, sim *netsim.Sim, skipped int64) {
	st := sim.Stats()
	planes := max(st.Planes, 1)
	tr.add("netsim.inject_cells", float64(st.InjectedCells))
	tr.add("idle.slots", float64(st.IdleSlots))
	tr.add("idle.capacity", float64(st.MeasuredSlots)*float64(sim.N())*float64(planes))
	tr.add("netsim.slots", float64(sim.Slot()))
	tr.add("netsim.ff_skipped", float64(skipped))
}

// steppedSim is the accounting of a simulation driven Step by Step.
type steppedSim struct {
	c       *chunk
	ph0     phaseSample
	ob      *obs.Observer
	skipped int64
}

func newSteppedSim(tr *tracer, parent int, sim *netsim.Sim, ob *obs.Observer) *steppedSim {
	return &steppedSim{c: tr.chunk(parent, sim.Slot()), ph0: samplePhases(ob), ob: ob}
}

// fastForward is Sim.FastForwardTo, charged and counted.
func (s *steppedSim) fastForward(sim *netsim.Sim, target int64) int64 {
	k := sim.FastForwardTo(target)
	s.c.op(opFF, 1)
	if k > 0 {
		s.skipped += k
		s.c.tr.add("netsim.ff_effective", 1)
	}
	return k
}

// done closes the last chunk and reports the simulation.
func (s *steppedSim) done(sim *netsim.Sim) {
	c, tr := s.c, s.c.tr
	c.flush(sim.Slot())
	addStepPhases(tr, samplePhases(s.ob).since(s.ph0), c.totalCount[opStep], 1)
	tr.add("inject.meas_ns", float64(c.totalSum[opInject]))
	tr.add("inject.meas_cells", float64(sim.Stats().InjectedCells))
	tr.add("hop.step_ns", float64(c.totalSum[opStep]))
	tr.add("hop.sent", float64(sim.Stats().SentCells))
	addSimCounts(tr, sim, s.skipped)
}

// fctTraced is experiments.FCTvsLoad without an observer. Each cell's
// simulator carries its own phase observer and runs netsim's RunOpenLoop
// loop here, Step by Step.
func fctTraced(cfg experiments.FCTConfig, tr *tracer, parent int) ([]experiments.FCTPoint, error) {
	var (
		sorn, flat     *core.Network
		sornTM, flatTM *workload.Matrix
	)
	err := tr.time("core.build", parent, func() (err error) {
		sorn, err = core.SharedBuilds.SORN(cfg.N, cfg.Nc, cfg.X)
		return err
	})
	if err == nil {
		err = tr.time("workload.tm", parent, func() (err error) {
			sornTM, err = sorn.LocalityMatrix(cfg.X)
			return err
		})
	}
	if err == nil {
		err = tr.time("core.build", parent, func() (err error) {
			flat, err = core.SharedBuilds.ORN1D(cfg.N)
			return err
		})
	}
	if err != nil {
		return nil, err
	}
	_ = tr.time("workload.tm", parent, func() error {
		flatTM = workload.Uniform(cfg.N)
		return nil
	})
	size := workload.FixedSize(16)
	type cell struct {
		nw     *core.Network
		tm     *workload.Matrix
		design string
		load   float64
	}
	cells := make([]cell, 0, 2*len(cfg.Loads))
	for _, load := range cfg.Loads {
		cells = append(cells, cell{sorn, sornTM, "SORN", load}, cell{flat, flatTM, "1D ORN", load})
	}
	sw := sweep.Config{Concurrency: cfg.SweepWorkers, Seed: cfg.Seed}
	pool := core.NewSimPool(sw.Workers(len(cells)))
	return sweep.Run(sw, len(cells), func(p sweep.Point) (experiments.FCTPoint, error) {
		ps := tr.begin("sweep.point", parent)
		defer tr.end(ps)
		c := cells[p.Index]
		ob := phaseObserver()
		opts := core.SimOptions{
			SlotNS: 100, PropNS: 500, Seed: cfg.Seed, LatencySampleEvery: 16,
			Workers: sw.SimWorkers(len(cells), cfg.Workers), Obs: ob,
		}
		var (
			sim   *netsim.Sim
			flows []workload.Flow
		)
		err := tr.time("core.acquire", ps, func() (err error) {
			sim, err = pool.Acquire(p.Worker, c.nw, opts)
			return err
		})
		if err == nil {
			err = tr.time("workload.gen", ps, func() error {
				gen, err := workload.NewPoissonFlows(c.tm, size, c.load, opts.Seed+1)
				if err != nil {
					return err
				}
				flows = gen.Window(0, cfg.Slots)
				return nil
			})
		}
		if err != nil {
			return experiments.FCTPoint{}, err
		}
		tr.add("workload.flows", float64(len(flows)))
		sim.StartMeasuring()
		if err := runOpenLoopTraced(sim, flows, cfg.Slots, ob, tr, ps); err != nil {
			return experiments.FCTPoint{}, err
		}
		st := sim.Stats()
		return experiments.FCTPoint{
			Design: c.design,
			Load:   c.load,
			P50us:  st.FCTSlots.Percentile(50) * 0.1,
			P99us:  st.FCTSlots.Percentile(99) * 0.1,
			Done:   st.CompletedFlows,
		}, nil
	})
}

// runOpenLoopTraced is Sim.RunOpenLoop's loop.
func runOpenLoopTraced(sim *netsim.Sim, flows []workload.Flow, until int64, ob *obs.Observer, tr *tracer, parent int) error {
	s := newSteppedSim(tr, parent, sim, ob)
	i := 0
	for sim.Slot() < until {
		from := i
		for i < len(flows) && flows[i].Arrival <= sim.Slot() {
			f := flows[i]
			if f.Arrival < 0 {
				return fmt.Errorf("netsim: flow %d has negative arrival", f.ID)
			}
			sim.InjectFlow(f.Src, f.Dst, f.Size)
			i++
		}
		if i > from {
			s.c.op(opInject, int64(i-from))
		}
		sim.Step()
		s.c.op(opStep, 1)
		next := until
		if i < len(flows) && flows[i].Arrival < next {
			next = flows[i].Arrival
		}
		s.fastForward(sim, next)
		s.c.next(sim.Slot())
	}
	s.done(sim)
	return nil
}

// availTraced is experiments.Availability.
func availTraced(cfg experiments.AvailabilityConfig, tr *tracer, parent int) (*experiments.AvailabilityResult, error) {
	if cfg.Window == 0 {
		cfg.Window = max(cfg.Slots/50, 1)
	}
	if cfg.EpochSlots == 0 {
		cfg.EpochSlots = 500
	}
	if cfg.Slots <= 0 {
		return nil, fmt.Errorf("experiments: availability needs positive Slots, got %d", cfg.Slots)
	}
	if cfg.Plan == nil {
		var err error
		if cfg.Plan, err = faultplan.New(cfg.N, nil); err != nil {
			return nil, err
		}
	}
	if cfg.Plan.N() != cfg.N {
		return nil, fmt.Errorf("experiments: fault plan over %d nodes, experiment over %d", cfg.Plan.N(), cfg.N)
	}
	var (
		sorn, obl *core.Network
		tm        *workload.Matrix
	)
	err := tr.time("core.build", parent, func() (err error) {
		sorn, err = core.SharedBuilds.SORN(cfg.N, cfg.Nc, cfg.X)
		return err
	})
	if err == nil {
		err = tr.time("workload.tm", parent, func() (err error) {
			tm, err = sorn.LocalityMatrix(cfg.X)
			return err
		})
	}
	if err == nil {
		err = tr.time("core.build", parent, func() (err error) {
			obl, err = core.SharedBuilds.SORNWithQ(cfg.N, cfg.Nc, 2)
			return err
		})
	}
	if err != nil {
		return nil, err
	}
	type designRun struct {
		windows []experiments.AvailabilityWindow
		stats   netsim.Stats
	}
	sw := sweep.Config{Concurrency: cfg.SweepWorkers, Seed: cfg.Seed}
	if cfg.Obs != nil {
		sw.Concurrency = 1
	}
	runs, err := sweep.Run(sw, 2, func(p sweep.Point) (designRun, error) {
		ps := tr.begin("sweep.point", parent)
		defer tr.end(ps)
		simWorkers := sw.SimWorkers(2, cfg.Workers)
		if p.Index == 0 {
			var resil *controlplane.Resilient
			if err := tr.time("controlplane.setup", ps, func() error {
				ctl, err := controlplane.NewController(cfg.N, cfg.Nc, 0.5)
				if err != nil {
					return err
				}
				ctl.Obs = cfg.Obs
				resil = controlplane.NewResilient(ctl)
				return nil
			}); err != nil {
				return designRun{}, err
			}
			w, st, err := availRun(cfg, simWorkers, sorn, tm, "SORN+fallback", resil, tr, ps)
			return designRun{windows: w, stats: st}, err
		}
		w, st, err := availRun(cfg, simWorkers, obl, tm, "oblivious", nil, tr, ps)
		return designRun{windows: w, stats: st}, err
	})
	if err != nil {
		return nil, err
	}
	res := &experiments.AvailabilityResult{
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
	if cfg.Obs != nil {
		_ = tr.time("obs.series", parent, func() error {
			tr.add("obs.series_rows", float64(len(cfg.Obs.SeriesRows())))
			return nil
		})
	}
	return res, nil
}

// availRun is the availability experiment's slot loop for one design.
func availRun(cfg experiments.AvailabilityConfig, simWorkers int, nw *core.Network, tm *workload.Matrix,
	label string, resil *controlplane.Resilient, tr *tracer, parent int) ([]experiments.AvailabilityWindow, netsim.Stats, error) {
	if cfg.Obs != nil {
		cfg.Obs.StartRun(label)
	}
	var (
		sim   *netsim.Sim
		flows []workload.Flow
	)
	err := tr.time("core.acquire", parent, func() (err error) {
		sim, err = nw.NewSim(core.SimOptions{Seed: cfg.Seed, Workers: simWorkers, LatencySampleEvery: 16, Obs: cfg.Obs})
		return err
	})
	if err == nil {
		err = tr.time("workload.gen", parent, func() error {
			gen, err := workload.NewPoissonFlows(tm, workload.FixedSize(8), cfg.Load, cfg.Seed+1)
			if err != nil {
				return err
			}
			flows = gen.Window(0, cfg.Slots)
			return nil
		})
	}
	if err != nil {
		return nil, netsim.Stats{}, err
	}
	tr.add("workload.flows", float64(len(flows)))
	drv := faultplan.NewDriver(cfg.Plan)
	s := newSteppedSim(tr, parent, sim, cfg.Obs)
	sim.StartMeasuring()
	var out []experiments.AvailabilityWindow
	var prev netsim.Stats
	next := 0
	for slot := int64(0); slot < cfg.Slots; slot++ {
		if drv.Advance(sim, slot) > 0 {
			s.c.op(opAdvance, 1)
		}
		if resil != nil && slot%cfg.EpochSlots == 0 {
			if slot < cfg.OutageStart || slot >= cfg.OutageEnd {
				if err := resil.C.Observe(tm); err != nil {
					return nil, netsim.Stats{}, err
				}
			}
			dec, err := resil.Decide()
			s.c.op(opDecide, 1)
			if err != nil {
				return nil, netsim.Stats{}, err
			}
			if dec.Changed {
				tr.add("controlplane.replans", 1)
				if err := sim.Reconfigure(dec.Plan.Built.Schedule, routing.NewSORN(dec.Plan.Built)); err != nil {
					return nil, netsim.Stats{}, err
				}
				s.c.op(opReconfig, 1)
			}
		}
		from := next
		for next < len(flows) && flows[next].Arrival <= slot {
			f := flows[next]
			sim.InjectFlow(f.Src, f.Dst, f.Size)
			next++
		}
		if next > from {
			s.c.op(opInject, int64(next-from))
		}
		sim.Step()
		s.c.op(opStep, 1)
		if (slot+1)%cfg.Window == 0 || slot == cfg.Slots-1 {
			cur := *sim.Stats()
			w := experiments.AvailabilityWindow{
				Slot:    slot + 1,
				Backlog: sim.Backlog(),
				Lost:    cur.LostCells - prev.LostCells,
				Dropped: cur.DroppedCells - prev.DroppedCells,
			}
			span := cfg.Window
			if r := (slot + 1) % cfg.Window; r != 0 {
				span = r
			}
			w.Throughput = float64(cur.DeliveredCells-prev.DeliveredCells) /
				(float64(cfg.N) * float64(span))
			if resil != nil {
				w.Degraded = resil.Degraded()
			}
			out = append(out, w)
			prev = cur
		}
		target := cfg.Slots - 1
		if fs, ok := drv.NextSlot(); ok && fs < target {
			target = fs
		}
		if next < len(flows) && flows[next].Arrival < target {
			target = flows[next].Arrival
		}
		if resil != nil {
			if ep := (slot/cfg.EpochSlots + 1) * cfg.EpochSlots; ep < target {
				target = ep
			}
		}
		if rp := ((slot+1)/cfg.Window+1)*cfg.Window - 1; rp < target {
			target = rp
		}
		if s.fastForward(sim, target) > 0 {
			slot = sim.Slot() - 1
		}
		s.c.next(sim.Slot())
	}
	s.done(sim)
	return out, *sim.Stats(), nil
}
