package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faultplan"
	"repro/internal/model"
	"repro/internal/netsim"
	"repro/internal/obs"
)

// benchWorkload is one benchmark input set. plain runs one rep through the
// experiments entry point a user calls; traced runs the same rep through
// the bench drivers with every layer call timed. Both return the same
// outcome, so a traced rep is checked against the plain ones.
type benchWorkload struct {
	name string
	// builds are every network the workload uses, built into the given
	// cache; set-up is all of them into a fresh one.
	builds []func(*core.BuildCache) error
	plain  func() (outcome, error)
	traced func(tr *tracer, parent int) (outcome, error)
}

// outcome is one rep's checked result. A run is one sweep point,
// (design, load) cell or design.
type outcome struct {
	runs     int
	failures []string
	digest   uint64 // hash of every run's simulated output
	gap      float64
}

// availChurn is avail-churn's background fault churn. It is drawn from
// the workload seed.
const availChurn = "churn@1000-95000,links=0.002,nodes=0.0005,down=2000"

// workloads returns the benchmark's workloads with inputs drawn from
// seed. BENCHMARK.json names them and says why each is there. Each runs
// on one busy goroutine: on a shared host with few cores, a second one
// measures the host's scheduler rather than the simulator.
func workloads(seed uint64) ([]*benchWorkload, error) {
	plan, err := faultplan.ParseSpec(availChurn, 128, seed)
	if err != nil {
		return nil, err
	}
	return []*benchWorkload{
		fig2fWorkload("fig2f-sat",
			experiments.Fig2fConfig{
				N: 128, Nc: 8, Step: 0.25, RunSim: true,
				WarmupSlots: 25000, MeasureSlots: 25000, Backlog: 4096, SizeCap: 1333,
				Seed: seed, Workers: 1, SweepWorkers: 1,
			}),
		fctWorkload("fct-openloop",
			experiments.FCTConfig{
				N: 128, Nc: 8, X: 0.56, Loads: []float64{0.001, 0.1, 0.4}, Slots: 80000,
				Seed: seed, Workers: 1, SweepWorkers: 1,
			}),
		availWorkload("avail-churn",
			experiments.AvailabilityConfig{
				N: 128, Nc: 8, X: 0.56, Load: 0.3, Slots: 100000, EpochSlots: 500,
				OutageStart: 30000, OutageEnd: 50000, Plan: plan,
				Seed: seed, Workers: 1, SweepWorkers: 1,
			}),
		fig2fWorkload("fluid-n512",
			experiments.Fig2fConfig{
				N: 512, Nc: 16, Step: 0.25, SizeCap: 1333, Seed: seed, SweepWorkers: 1,
			}),
	}, nil
}

func findWorkload(ws []*benchWorkload, name string) (*benchWorkload, error) {
	for _, w := range ws {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// digest accumulates simulated outputs bit for bit.
type digest struct{ h hash.Hash64 }

func newDigest() *digest { return &digest{fnv.New64a()} }

func (d *digest) ints(vs ...int64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		_, _ = d.h.Write(b[:]) // hash writes never fail
	}
}

func (d *digest) floats(vs ...float64) {
	for _, v := range vs {
		d.ints(int64(math.Float64bits(v)))
	}
}

func (d *digest) str(s string) {
	d.ints(int64(len(s)))
	_, _ = d.h.Write([]byte(s)) // hash writes never fail
}

func (d *digest) stats(s *netsim.Stats) {
	d.ints(s.DeliveredCells, s.InjectedCells, s.SentCells, s.IdleSlots, s.LostCells,
		s.DroppedCells, s.MeasuredSlots, s.CompletedFlows, int64(s.Planes))
	d.floats(s.LatencySlots.Values()...)
	d.floats(s.FCTSlots.Values()...)
	for i := range s.LatencyByHops {
		d.floats(s.LatencyByHops[i].Values()...)
	}
}

func (d *digest) sum() uint64 { return d.h.Sum64() }

func (o *outcome) fail(format string, args ...any) {
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

func fig2fWorkload(name string, cfg experiments.Fig2fConfig) *benchWorkload {
	w := &benchWorkload{name: name}
	for _, x := range fig2fGrid(cfg.Step) {
		w.builds = append(w.builds, func(c *core.BuildCache) error {
			_, err := c.SORN(cfg.N, cfg.Nc, x)
			return err
		})
	}
	check := func(pts []experiments.Fig2fPoint) outcome {
		o := outcome{runs: len(pts)}
		d := newDigest()
		for _, p := range pts {
			d.floats(p.X, p.Theory, p.Fluid, p.Sim)
			nw, err := core.SharedBuilds.SORN(cfg.N, cfg.Nc, p.X)
			if err != nil {
				o.fail("x=%.2f: %v", p.X, err)
				continue
			}
			if !cfg.RunSim {
				// The fluid θ of the built schedule can only beat the
				// closed form at its realized q, and never exceeds 1/2.
				if floor := model.SORNThroughputAtQ(p.X, nw.SORN.RealizedQ); !(p.Fluid >= floor-1e-9 && p.Fluid <= 0.5) {
					o.fail("x=%.2f: fluid θ %.6f outside [%.6f, 0.5]", p.X, p.Fluid, floor)
				}
				continue
			}
			// The oracle's finite-horizon sim-vs-fluid budget.
			m := float64(cfg.MeasureSlots)
			budget := 0.05 + 1.5*float64(nw.Schedule.Period())/m + 2/math.Sqrt(m)
			gap := math.Abs(p.Sim-p.Fluid) / p.Fluid
			o.gap = max(o.gap, gap)
			if !(gap <= budget) {
				o.fail("x=%.2f: sim %.4f vs fluid %.4f: gap %.4f over budget %.4f", p.X, p.Sim, p.Fluid, gap, budget)
			}
		}
		o.digest = d.sum()
		return o
	}
	w.plain = func() (outcome, error) {
		pts, err := experiments.Fig2f(cfg)
		if err != nil {
			return outcome{}, err
		}
		return check(pts), nil
	}
	w.traced = func(tr *tracer, parent int) (outcome, error) {
		pts, err := fig2fTraced(cfg, tr, parent)
		if err != nil {
			return outcome{}, err
		}
		return check(pts), nil
	}
	return w
}

func fctWorkload(name string, cfg experiments.FCTConfig) *benchWorkload {
	w := &benchWorkload{name: name}
	w.builds = []func(*core.BuildCache) error{
		func(c *core.BuildCache) error { _, err := c.SORN(cfg.N, cfg.Nc, cfg.X); return err },
		func(c *core.BuildCache) error { _, err := c.ORN1D(cfg.N); return err },
	}
	check := func(pts []experiments.FCTPoint) outcome {
		o := outcome{runs: len(pts)}
		d := newDigest()
		for _, p := range pts {
			d.str(p.Design)
			d.floats(p.Load, p.P50us, p.P99us)
			d.ints(p.Done)
			if p.Done <= 0 || math.IsNaN(p.P50us) || math.IsInf(p.P99us, 0) || !(p.P50us <= p.P99us) {
				o.fail("%s@%.3f: done %d, FCT p50 %v p99 %v µs", p.Design, p.Load, p.Done, p.P50us, p.P99us)
			}
		}
		o.digest = d.sum()
		return o
	}
	w.plain = func() (outcome, error) {
		pts, err := experiments.FCTvsLoad(cfg)
		if err != nil {
			return outcome{}, err
		}
		return check(pts), nil
	}
	w.traced = func(tr *tracer, parent int) (outcome, error) {
		pts, err := fctTraced(cfg, tr, parent)
		if err != nil {
			return outcome{}, err
		}
		return check(pts), nil
	}
	return w
}

// availWorkload runs Availability with an observer snapshotting every
// 64 slots, as `sornsim -mode avail -metrics` does. Sharing one observer
// makes the two design runs serial.
func availWorkload(name string, cfg experiments.AvailabilityConfig) *benchWorkload {
	w := &benchWorkload{name: name}
	w.builds = []func(*core.BuildCache) error{
		func(c *core.BuildCache) error { _, err := c.SORN(cfg.N, cfg.Nc, cfg.X); return err },
		func(c *core.BuildCache) error { _, err := c.SORNWithQ(cfg.N, cfg.Nc, 2); return err },
	}
	check := func(res *experiments.AvailabilityResult, ob *obs.Observer) outcome {
		o := outcome{runs: 2}
		d := newDigest()
		for _, ws := range [][]experiments.AvailabilityWindow{res.SORN, res.Oblivious} {
			d.ints(int64(len(ws)))
			for _, w := range ws {
				d.ints(w.Slot, w.Backlog, w.Lost, w.Dropped, int64(boolBit(w.Degraded)))
				d.floats(w.Throughput)
			}
		}
		d.ints(int64(boolBit(res.FellBack)), int64(boolBit(res.Recovered)), int64(len(ob.SeriesRows())), int64(len(ob.Events())))
		d.stats(&res.SORNStats)
		d.stats(&res.ObliviousStats)
		if !res.FellBack || !res.Recovered {
			o.fail("SORN+fallback: fell back %v, recovered %v", res.FellBack, res.Recovered)
		}
		if len(res.Oblivious) == 0 || res.ObliviousStats.DeliveredCells == 0 {
			o.fail("oblivious: %d windows, %d cells delivered", len(res.Oblivious), res.ObliviousStats.DeliveredCells)
		}
		o.digest = d.sum()
		return o
	}
	observed := func() experiments.AvailabilityConfig {
		c := cfg
		c.Obs = obs.New(obs.Options{MetricsEvery: 64})
		return c
	}
	w.plain = func() (outcome, error) {
		c := observed()
		res, err := experiments.Availability(c)
		if err != nil {
			return outcome{}, err
		}
		return check(res, c.Obs), nil
	}
	w.traced = func(tr *tracer, parent int) (outcome, error) {
		c := observed()
		res, err := availTraced(c, tr, parent)
		if err != nil {
			return outcome{}, err
		}
		return check(res, c.Obs), nil
	}
	return w
}

func boolBit(b bool) int {
	if b {
		return 1
	}
	return 0
}
