package oracle

import (
	"cmp"
	"math"
	"math/big"
	"slices"

	"repro/internal/fluid"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/workload"
)

// simTolerance is the finite-horizon agreement budget between the fluid
// θ and the packet simulator's saturated throughput: a base for
// queueing/discretization effects, a term for partial schedule periods
// in the measurement window, and a CLT term for the measured-slot count.
// The constants are calibrated in EXPERIMENTS.md ("Differential
// testing") against the fixed corpus with ≥2x headroom.
func simTolerance(sc *scenario) float64 {
	period := float64(sc.sched.Period())
	m := float64(sc.spec.Measure)
	return 0.05 + 1.5*period/m + 2/math.Sqrt(m)
}

// simComparable reports whether the saturated simulator throughput is a
// valid estimator of the fluid θ for this scenario. Per-pair backlog
// saturation delivers every demand pair at its own path capacity, so the
// aggregate only matches θ·(row sum) when all demand pairs are
// equivalent: a uniform matrix on the single-link-class designs, a
// permutation on the symmetric flat schedules, or a class-uniform SORN
// matrix whose two link classes are near-balanced (ratio ≥ 0.8) — when
// one class is far slacker, the simulator legitimately delivers more
// aggregate throughput than the worst pair's θ.
func simComparable(sc *scenario) bool {
	switch sc.spec.Design {
	case "orn1", "orn2", "direct":
		if sc.spec.TM == "uniform" {
			return true
		}
		return sc.spec.TM == "permutation" && sc.spec.Design != "orn2"
	case "sorn":
		if sc.spec.TM != "uniform" && sc.spec.TM != "locality" {
			return false
		}
		tI, tX, ok := sornClassThetas(sc)
		if !ok {
			return false
		}
		if tI == nil || tX == nil {
			return true // single loaded class
		}
		lo, hi := tI, tX
		if lo.Cmp(hi) > 0 {
			lo, hi = hi, lo
		}
		ratio := new(big.Rat).Quo(lo, hi)
		f, _ := ratio.Float64()
		return f >= 0.8
	}
	return false
}

func (sc *scenario) simConfig(workers int, sampleLatency bool) netsim.Config {
	cfg := netsim.Config{
		Schedule: sc.sched,
		Router:   sc.router,
		SlotNS:   100,
		PropNS:   500,
		Seed:     sc.spec.Seed,
		Planes:   sc.spec.Planes,
		Workers:  workers,
	}
	if sampleLatency {
		cfg.LatencySampleEvery = 1
	}
	return cfg
}

// perPairBacklog sizes the saturation backlog so sources stay
// work-conserving under source routing: a cell's relay is fixed at
// injection, so a source can use the slot's circuit only if some queued
// cell's first hop matches it. With B cells spread over R possible first
// hops, a source misses a slot with probability ~(1−1/R)^B; sparse
// matrices (permutation: one pair per source) need B ≈ several·R·planes
// per pair or the measurement starves at a fraction of the fluid θ.
func perPairBacklog(sc *scenario) int64 {
	relays := int64(1)
	switch sc.spec.Design {
	case "orn1":
		relays = int64(sc.spec.N - 1)
	case "orn2":
		relays = int64(sc.orn.Base)
	case "sorn":
		relays = int64(sc.spec.N / sc.spec.Nc)
	}
	minPairs := int64(sc.spec.N)
	for s := range sc.ratTM {
		c := int64(0)
		for d, r := range sc.ratTM[s] {
			if r != nil && d != s {
				c++
			}
		}
		if c > 0 && c < minPairs {
			minPairs = c
		}
	}
	return 4 + (8*int64(sc.spec.Planes)*relays)/minPairs
}

// runSaturated runs one per-pair-backlog saturation experiment.
func runSaturated(sc *scenario, workers int) (*netsim.Stats, error) {
	sim, err := netsim.New(sc.simConfig(workers, true))
	if err != nil {
		return nil, err
	}
	return sim.RunSaturated(netsim.SaturationConfig{
		TM:             sc.tm,
		Size:           workload.FixedSize(1),
		PerPairBacklog: perPairBacklog(sc),
		WarmupSlots:    sc.spec.Warmup,
		MeasureSlots:   sc.spec.Measure,
	})
}

// checkSim runs the packet simulator twice — Workers=1 and
// Workers=spec.Workers — asserts the two runs are bit-identical (the
// simulator's determinism contract), and, on comparable scenarios,
// checks the saturated throughput against the fluid θ within the
// finite-horizon budget.
func checkSim(sc *scenario, fl *fluid.Result, rep *Report) {
	serial, err := runSaturated(sc, 1)
	if err != nil {
		rep.add("sim", "saturated run (workers=1): %v", err)
		return
	}
	sharded, err := runSaturated(sc, sc.spec.Workers)
	if err != nil {
		rep.add("sim", "saturated run (workers=%d): %v", sc.spec.Workers, err)
		return
	}
	if diff, ok := serial.BitIdentical(sharded); !ok {
		rep.add("sim-workers", "saturated stats differ between workers=1 and workers=%d: %s",
			sc.spec.Workers, diff)
	}

	if simComparable(sc) {
		got := serial.Throughput(sc.sched.N)
		tol := simTolerance(sc)
		if !relClose(got, fl.Theta, tol) {
			rep.add("sim-throughput", "simulator θ=%v, fluid θ=%v, finite-horizon budget %v (period=%d measure=%d)",
				got, fl.Theta, tol, sc.sched.Period(), sc.spec.Measure)
		}
	}
}

// Driven-run shape for the fail→repair identity: shorter than the
// saturation runs (three runs per scenario), long enough to cross many
// schedule periods.
const (
	drivenWarmup = 400
	drivenTotal  = 1200
)

// drivenAction is done to the simulator at slot, before that slot's
// arrivals.
type drivenAction struct {
	slot int64
	do   func(sim *netsim.Sim)
}

// runDriven runs the simulator over an open-loop arrival process derived
// from the spec seed (identical across calls), measuring from
// drivenWarmup on, and applies the actions between RunOpenLoop segments.
func runDriven(sc *scenario, workers int, inject float64, actions []drivenAction) (*netsim.Stats, error) {
	sim, err := netsim.New(sc.simConfig(workers, true))
	if err != nil {
		return nil, err
	}
	var flows []workload.Flow
	injR := rng.New(sc.spec.Seed ^ 0x696e6a6563748a51).Split()
	for t := int64(0); t < drivenTotal; t++ {
		for u := 0; u < sc.spec.N; u++ {
			if injR.Float64() < inject {
				if dst := sc.tm.SampleDest(u, injR); dst >= 0 && dst != u {
					flows = append(flows, workload.Flow{ID: len(flows), Src: u, Dst: dst, Size: 1, Arrival: t})
				}
			}
		}
	}
	actions = append([]drivenAction{{drivenWarmup, (*netsim.Sim).StartMeasuring}}, actions...)
	slices.SortStableFunc(actions, func(a, b drivenAction) int { return cmp.Compare(a.slot, b.slot) })
	for _, a := range actions {
		if flows, err = sim.RunOpenLoop(flows, a.slot); err != nil {
			return nil, err
		}
		a.do(sim)
	}
	if _, err := sim.RunOpenLoop(flows, drivenTotal); err != nil {
		return nil, err
	}
	return sim.Stats(), nil
}

// checkFailRepair verifies that failing and repairing an element with a
// zero-slot elapsed window is invisible: a run that fails and repairs a
// node at slot 0 (before anything is queued) and fail+repairs a live
// circuit between two mid-run slots must be bit-identical to a run that
// never failed anything. A second comparison runs the hooked scenario at
// Workers=1 vs Workers=k, extending the determinism contract across the
// failure bitmaps.
func checkFailRepair(sc *scenario, fl *fluid.Result, rep *Report) {
	// Moderate open-loop load: below θ so queues stay shallow, bounded
	// away from 0 and 1.
	inject := math.Min(0.7, math.Max(0.1, 0.4*fl.Theta*float64(sc.spec.Planes)))

	// A circuit that really exists: node 0's slot-0 peer.
	v := sc.sched.Slots[0][0]
	// Fail+repair a node before any cell exists (the purge is vacuous),
	// then a live circuit twice with a zero-slot fail window: no
	// transmission happens between FailLink and RepairLink.
	failRepairLink := func(sim *netsim.Sim) {
		sim.FailLink(0, v)
		sim.RepairLink(0, v)
	}
	actions := []drivenAction{
		{0, func(sim *netsim.Sim) {
			sim.FailNode(1 % sc.spec.N)
			sim.RepairNode(1 % sc.spec.N)
		}},
		{drivenWarmup / 2, failRepairLink},
		{drivenWarmup + 300, failRepairLink},
	}

	base, err := runDriven(sc, sc.spec.Workers, inject, nil)
	if err != nil {
		rep.add("fail-repair", "baseline driven run: %v", err)
		return
	}
	hooked, err := runDriven(sc, sc.spec.Workers, inject, actions)
	if err != nil {
		rep.add("fail-repair", "hooked driven run: %v", err)
		return
	}
	if diff, ok := base.BitIdentical(hooked); !ok {
		rep.add("fail-repair", "zero-window fail+repair changed the run: %s", diff)
	}
	hookedSerial, err := runDriven(sc, 1, inject, actions)
	if err != nil {
		rep.add("fail-repair", "hooked driven run (workers=1): %v", err)
		return
	}
	if diff, ok := hookedSerial.BitIdentical(hooked); !ok {
		rep.add("fail-repair-workers", "driven stats differ between workers=1 and workers=%d: %s",
			sc.spec.Workers, diff)
	}
}
