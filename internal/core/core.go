// Package core is the public face of the SORN reproduction: it assembles
// a circuit schedule, routing scheme, analytical model, fluid solver, and
// slotted simulator behind one Network type, and wires the semi-oblivious
// control loop around it.
//
// Quick start:
//
//	nw, err := core.NewSORN(128, 8, 0.56)           // 128 nodes, 8 cliques, locality 0.56
//	res, err := nw.Throughput(nw.LocalityMatrix(0.56))
//	stats, err := nw.SimulateSaturated(core.SimOptions{Seed: 1}, tm, workload.WebSearch())
//
// Baselines (1D/2D ORNs) come from NewORN1D / NewORN, so every comparison
// in the paper can be run through the same interface.
package core

import (
	"fmt"

	"repro/internal/controlplane"
	"repro/internal/fluid"
	"repro/internal/matching"
	"repro/internal/model"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/routing"
	"repro/internal/schedule"
	"repro/internal/workload"
)

// Network is a built reconfigurable network design: a schedule (what the
// circuits do each slot) plus a routing scheme (how traffic uses them).
type Network struct {
	// Kind names the design ("sorn", "orn-1d", "orn-2d", ...).
	Kind string
	// Schedule is the periodic matching sequence all nodes follow.
	Schedule *matching.Schedule
	// Router is the oblivious/semi-oblivious routing scheme.
	Router routing.Router
	// SORN is non-nil for semi-oblivious networks and carries the clique
	// structure and realized oversubscription.
	SORN *schedule.SORN
}

// NewSORN builds a semi-oblivious network for the expected locality ratio
// x, using the throughput-optimal oversubscription q* = 2/(1−x) (clamped
// to 16 so the schedule keeps inter-clique slots). x must lie in [0, 1].
func NewSORN(n, nc int, locality float64) (*Network, error) {
	q, err := sornQ(locality)
	if err != nil {
		return nil, err
	}
	return NewSORNWithQ(n, nc, q)
}

// sornQ returns NewSORN's oversubscription for locality x, or an error
// for an x outside [0, 1] (NaN included) instead of the model's panic.
func sornQ(locality float64) (float64, error) {
	if !(locality >= 0 && locality <= 1) {
		return 0, fmt.Errorf("core: locality ratio %v outside [0,1]", locality)
	}
	return model.SORNQClamped(locality, 16), nil
}

// NewSORNWithQ builds a semi-oblivious network with an explicit
// oversubscription ratio.
func NewSORNWithQ(n, nc int, q float64) (*Network, error) {
	s, err := schedule.BuildSORN(schedule.SORNConfig{N: n, Nc: nc, Q: q})
	if err != nil {
		return nil, err
	}
	return &Network{
		Kind:     "sorn",
		Schedule: s.Schedule,
		Router:   routing.NewSORN(s),
		SORN:     s,
	}, nil
}

// NewORN1D builds the flat round-robin oblivious baseline (Sirius-like):
// full uniform connectivity, 2-hop VLB routing. n must be at least 2.
func NewORN1D(n int) (*Network, error) {
	if n < 2 {
		return nil, fmt.Errorf("core: 1D ORN needs at least 2 nodes, got %d", n)
	}
	sched := schedule.RoundRobin1D(n)
	v, err := routing.NewVLB(sched)
	if err != nil {
		return nil, err
	}
	return &Network{Kind: "orn-1d", Schedule: sched, Router: v}, nil
}

// NewORN builds an h-dimensional optimal ORN baseline (2h-hop routing).
// n must be a perfect h-th power.
func NewORN(n, h int) (*Network, error) {
	o, err := schedule.BuildOptimalORN(n, h)
	if err != nil {
		return nil, err
	}
	return &Network{
		Kind:     fmt.Sprintf("orn-%dd", h),
		Schedule: o.Schedule,
		Router:   routing.NewORN(o),
	}, nil
}

// N returns the node count.
func (nw *Network) N() int { return nw.Schedule.N }

// LocalityMatrix returns the saturation traffic matrix with intra-clique
// fraction x under this network's clique structure. For non-SORN designs
// it returns the uniform matrix (they have no cliques).
func (nw *Network) LocalityMatrix(x float64) (*workload.Matrix, error) {
	if nw.SORN == nil {
		return workload.Uniform(nw.N()), nil
	}
	return workload.Locality(nw.SORN.Cliques, x)
}

// Throughput runs the fluid solver: the maximum fraction of each node's
// bandwidth deliverable under the given traffic matrix (the paper's r
// when tm is a saturation matrix).
func (nw *Network) Throughput(tm *workload.Matrix) (*fluid.Result, error) {
	return fluid.Solve(nw.Schedule, nw.Router, tm)
}

// SimOptions configure a packet-level simulation.
type SimOptions struct {
	SlotNS int64 // default 100
	PropNS int64 // default 500
	Seed   uint64
	// LatencySampleEvery records every k-th delivered cell's latency
	// (default 64).
	LatencySampleEvery int
	WarmupSlots        int64 // default 5000
	MeasureSlots       int64 // default 20000
	TargetBacklog      int64 // default 256 cells per node
	// Planes is the parallel uplink count per node (default 1).
	Planes int
	// Deprecated: Workers is ignored; every simulation steps serially.
	// It stays only while the benchmark module still sets it, and goes
	// with SimOptions itself (ROADMAP items 3 and 5).
	Workers int
	// Obs optionally attaches the observability layer (metrics time
	// series, phase timing, event trace). nil disables it; enabling it
	// never changes simulation results.
	Obs *obs.Observer
}

func (o SimOptions) withDefaults() SimOptions {
	if o.SlotNS == 0 {
		o.SlotNS = 100
	}
	if o.PropNS == 0 {
		o.PropNS = 500
	}
	if o.LatencySampleEvery == 0 {
		o.LatencySampleEvery = 64
	}
	if o.WarmupSlots == 0 {
		o.WarmupSlots = 5000
	}
	if o.MeasureSlots == 0 {
		o.MeasureSlots = 20000
	}
	if o.TargetBacklog == 0 {
		o.TargetBacklog = 256
	}
	return o
}

// simConfig maps opts onto a simulator configuration for this network —
// the one place SimOptions reach netsim.Config, shared by NewSim and
// SimPool.Acquire.
func (nw *Network) simConfig(opts SimOptions) netsim.Config {
	opts = opts.withDefaults()
	return netsim.Config{
		Schedule:           nw.Schedule,
		Router:             nw.Router,
		SlotNS:             opts.SlotNS,
		PropNS:             opts.PropNS,
		Seed:               opts.Seed,
		LatencySampleEvery: opts.LatencySampleEvery,
		Planes:             opts.Planes,
		Obs:                opts.Obs,
	}
}

// NewSim builds a packet-level simulator for this network.
func (nw *Network) NewSim(opts SimOptions) (*netsim.Sim, error) {
	return netsim.New(nw.simConfig(opts))
}

// SimulateSaturated measures saturation throughput at the packet level:
// every node keeps a backlog of flows (destinations from tm, sizes from
// dist) and the delivered cells per node per slot is the throughput r.
func (nw *Network) SimulateSaturated(opts SimOptions, tm *workload.Matrix, dist workload.SizeDist) (*netsim.Stats, error) {
	sim, err := nw.NewSim(opts)
	if err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	return sim.RunSaturated(netsim.SaturationConfig{
		TM:            tm,
		Size:          dist,
		TargetBacklog: opts.TargetBacklog,
		WarmupSlots:   opts.WarmupSlots,
		MeasureSlots:  opts.MeasureSlots,
	})
}

// RunOpenLoopOn runs a Poisson flow workload at the given offered load
// (fraction of node bandwidth) for `slots` slots on an already-built
// simulator and returns the stats (FCTs, latencies, deliveries) — the
// open-loop counterpart of SimulateSaturated. The flow trace is regenerated
// per run from the opts seed, so a pooled and a fresh simulator see the
// identical workload.
func RunOpenLoopOn(sim *netsim.Sim, opts SimOptions, tm *workload.Matrix, dist workload.SizeDist, load float64, slots int64) (*netsim.Stats, error) {
	opts = opts.withDefaults()
	gen, err := workload.NewPoissonFlows(tm, dist, load, opts.Seed+1)
	if err != nil {
		return nil, err
	}
	flows := gen.Window(0, slots)
	sim.StartMeasuring()
	if _, err := sim.RunOpenLoop(flows, slots); err != nil {
		return nil, err
	}
	return sim.Stats(), nil
}

// Adaptive wraps a SORN network with the semi-oblivious control loop:
// observe aggregated traffic, periodically re-plan q (and optionally the
// clique assignment), and reconfigure.
type Adaptive struct {
	Network    *Network
	Controller *controlplane.Controller
}

// NewAdaptive builds an adaptive SORN starting from locality x.
func NewAdaptive(n, nc int, initialLocality float64, recluster bool) (*Adaptive, error) {
	nw, err := NewSORN(n, nc, initialLocality)
	if err != nil {
		return nil, err
	}
	ctl, err := controlplane.NewController(n, nc, 0.5)
	if err != nil {
		return nil, err
	}
	ctl.Recluster = recluster
	return &Adaptive{Network: nw, Controller: ctl}, nil
}

// Adapt observes a traffic matrix, plans the next epoch, installs it in
// the Network, and returns the plan.
func (a *Adaptive) Adapt(tm *workload.Matrix) (*controlplane.Plan, error) {
	if err := a.Controller.Observe(tm); err != nil {
		return nil, err
	}
	p, err := a.Controller.PlanNext()
	if err != nil {
		return nil, err
	}
	if err := a.Controller.Apply(p); err != nil {
		return nil, err
	}
	a.Network.Schedule = p.Built.Schedule
	a.Network.Router = routing.NewSORN(p.Built)
	a.Network.SORN = p.Built
	return p, nil
}
