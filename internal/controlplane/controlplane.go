// Package controlplane implements the logically centralized control loop
// that makes the network *semi*-oblivious (paper §5): it observes
// aggregated, clique-level traffic (the macro-patterns of §3 — smoothed
// with an EWMA since they are stable over minutes to hours), estimates the
// locality ratio, chooses the throughput-optimal oversubscription
// q* = 2/(1−x), optionally re-clusters nodes whose affinity has shifted,
// and synthesizes the next circuit schedule. It never reacts to
// micro-scale demand; individual flows stay load-balanced obliviously.
package controlplane

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/ocs"
	"repro/internal/schedule"
	"repro/internal/workload"
)

// Estimator smooths observed traffic matrices into the aggregate view the
// control plane plans against.
type Estimator struct {
	n     int
	alpha float64 // EWMA weight of the newest observation
	ewma  *workload.Matrix
	obs   int
}

// NewEstimator creates an estimator over n nodes. alpha in (0, 1].
func NewEstimator(n int, alpha float64) (*Estimator, error) {
	// NaN fails every ordered comparison, so `<= 0 || > 1` alone would
	// accept it — and a NaN alpha poisons the whole EWMA on the first
	// Observe. Reject it explicitly.
	if math.IsNaN(alpha) || alpha <= 0 || alpha > 1 {
		return nil, fmt.Errorf("controlplane: EWMA alpha %f outside (0,1]", alpha)
	}
	return &Estimator{n: n, alpha: alpha}, nil
}

// Observe folds one measured traffic matrix into the estimate.
func (e *Estimator) Observe(tm *workload.Matrix) error {
	if tm.N != e.n {
		return fmt.Errorf("controlplane: observation over %d nodes, estimator over %d", tm.N, e.n)
	}
	if err := tm.Validate(); err != nil {
		return err
	}
	if e.ewma == nil {
		e.ewma = tm.Clone()
		e.obs = 1
		return nil
	}
	for s := 0; s < e.n; s++ {
		for d := 0; d < e.n; d++ {
			e.ewma.Rates[s][d] = (1-e.alpha)*e.ewma.Rates[s][d] + e.alpha*tm.Rates[s][d]
		}
	}
	e.obs++
	return nil
}

// Estimate returns a read-only view of the smoothed matrix (nil before
// any observation). The view stays live — subsequent Observes update it
// in place — and must not be mutated by callers; Clone it for a
// snapshot. PlanNext reads the estimate three times per epoch (existence
// check, locality, re-clustering affinity), so a cloning read would make
// the replanning loop allocate three N×N matrices per decision.
//
//sornlint:hotpath -- replanning-loop read path; must not allocate
func (e *Estimator) Estimate() *workload.Matrix {
	return e.ewma
}

// Observations returns how many matrices have been folded in.
func (e *Estimator) Observations() int { return e.obs }

// EstimateLocality returns the intra-clique fraction of the smoothed
// estimate under a partition.
func (e *Estimator) EstimateLocality(cl *schedule.Cliques) (float64, error) {
	if e.ewma == nil {
		return 0, fmt.Errorf("controlplane: no observations yet")
	}
	return e.ewma.IntraFraction(cl), nil
}

// Plan is one control-loop decision: the clique structure and
// oversubscription for the next epoch.
type Plan struct {
	Cliques    *schedule.Cliques
	X          float64 // estimated locality under those cliques
	Q          float64 // chosen oversubscription (clamped q*)
	PredictedR float64 // predicted worst-case throughput at Q
	// Built is the schedule to run. Plans of epochs that change neither
	// the cliques nor the realized weights share one Built (read-only).
	Built  *schedule.SORN
	Update *ocs.Update // nil until applied against a previous schedule
}

// Controller runs the periodic adaptation loop.
type Controller struct {
	n       int
	nc      int
	est     *Estimator
	current *schedule.SORN
	// MaxQ clamps the oversubscription: q* diverges as x→1, but real
	// schedules need at least one inter-clique slot per period.
	MaxQ float64
	// Recluster enables re-assigning nodes to cliques from the estimated
	// affinity (greedy aggregation); when false, the initial equal
	// partition is kept and only q is rebalanced (drain-free updates).
	Recluster bool
	// Obs, when non-nil, records each planning decision (estimated x,
	// chosen q*, clique count, predicted throughput) as a replan event.
	Obs *obs.Observer

	built *schedule.SORN // last PlanNext build, reused while it still fits
	epoch int64          // planning decisions made, for event ordinals
}

// NewController creates a controller for n nodes in nc cliques.
func NewController(n, nc int, alpha float64) (*Controller, error) {
	est, err := NewEstimator(n, alpha)
	if err != nil {
		return nil, err
	}
	if nc < 1 || n%nc != 0 {
		return nil, fmt.Errorf("controlplane: cannot run %d nodes as %d cliques", n, nc)
	}
	if nc > 1 && n/nc < 2 {
		// Every circuit is inter-clique, so the realized q is 0 and there
		// is no intra/inter split for a plan to rebalance.
		return nil, fmt.Errorf("controlplane: %d cliques of %d nodes are single nodes, leaving no q to plan (need at least 2 nodes per clique)", nc, n)
	}
	return &Controller{n: n, nc: nc, est: est, MaxQ: 16}, nil
}

// Observe forwards a measurement to the estimator.
func (c *Controller) Observe(tm *workload.Matrix) error { return c.est.Observe(tm) }

// Current returns the schedule from the last applied plan (nil initially).
func (c *Controller) Current() *schedule.SORN { return c.current }

// PlanNext computes the next epoch's plan from the current estimate.
func (c *Controller) PlanNext() (*Plan, error) {
	if c.est.Estimate() == nil {
		return nil, fmt.Errorf("controlplane: cannot plan without observations")
	}
	var cl *schedule.Cliques
	var err error
	if c.Recluster {
		cl, err = c.recluster()
	} else if c.current != nil {
		cl = c.current.Cliques
	} else {
		cl, err = schedule.EqualCliques(c.n, c.nc)
	}
	if err != nil {
		return nil, err
	}
	x := c.est.Estimate().IntraFraction(cl)
	// A corrupt estimate (NaN/Inf locality) or a divergent q* (x→1 with
	// no clamp, or a misconfigured MaxQ) must surface as an error here,
	// not as a degenerate schedule downstream: BuildSORN would happily
	// round a non-finite or non-positive q into a period with no
	// inter-clique slots, silently forfeiting the oblivious guarantee.
	if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 || x > 1 {
		return nil, fmt.Errorf("controlplane: estimated locality %f outside [0,1]", x)
	}
	q := model.SORNQ(x)
	if q > c.MaxQ {
		q = c.MaxQ
	}
	if math.IsNaN(q) || math.IsInf(q, 0) || q <= 0 {
		return nil, fmt.Errorf("controlplane: planned q %f not finite and positive (x=%f, MaxQ=%f)", q, x, c.MaxQ)
	}
	built, err := c.build(cl, q)
	if err != nil {
		return nil, err
	}
	p := &Plan{
		Cliques:    cl,
		X:          x,
		Q:          built.RealizedQ,
		PredictedR: model.SORNThroughputAtQ(x, built.RealizedQ),
		Built:      built,
	}
	c.epoch++
	if c.Obs != nil {
		c.Obs.Emit(obs.Event{Epoch: c.epoch, Type: obs.EvReplan, Src: -1, Dst: -1,
			X: p.X, Q: p.Q, Nc: cl.NumCliques(), Val: p.PredictedR})
	}
	return p, nil
}

// build returns the schedule for clique partition cl at oversubscription
// q. A build depends only on the partition and on the integer weights q
// realizes, so when both match the previous build that build is
// returned as is: at the macro time scales the paper replans on, almost
// every epoch confirms the incumbent, and reusing it skips the schedule
// construction, relabel and validation.
func (c *Controller) build(cl *schedule.Cliques, q float64) (*schedule.SORN, error) {
	if last := c.built; last != nil && last.Cliques.Equal(cl) {
		cfg := last.Config
		cfg.Q = q
		wIntra, wInter, err := cfg.Weights()
		if err != nil {
			return nil, err
		}
		if wIntra == last.WIntra && wInter == last.WInter {
			return last, nil
		}
	}
	// BuildSORN lays out contiguous equal cliques; rebuildOnCliques maps
	// that construction onto the planned partition by relabeling nodes
	// (the identity for the initial contiguous partition).
	built, err := rebuildOnCliques(cl, q)
	if err != nil {
		return nil, err
	}
	c.built = built
	return built, nil
}

// Apply commits a plan, diffing against the current schedule. Applying
// the schedule already installed records the empty update without
// re-validating or diffing it.
func (c *Controller) Apply(p *Plan) error {
	switch {
	case c.current == nil:
	case p.Built == c.current:
		p.Update = ocs.Unchanged(c.current.Schedule)
	default:
		u, err := ocs.PlanUpdate(c.current.Schedule, p.Built.Schedule)
		if err != nil {
			return err
		}
		p.Update = u
	}
	c.current = p.Built
	return nil
}

// recluster greedily groups nodes by estimated pairwise affinity into nc
// equal-size cliques: repeatedly seed a clique with the heaviest
// unassigned node and fill it with the unassigned nodes exchanging the
// most traffic with the clique so far.
func (c *Controller) recluster() (*schedule.Cliques, error) {
	tm := c.est.Estimate()
	k := c.n / c.nc
	assigned := make([]int, c.n)
	for i := range assigned {
		assigned[i] = -1
	}
	// Symmetric affinity.
	aff := func(a, b int) float64 { return tm.Rates[a][b] + tm.Rates[b][a] }

	// Node total volumes for seeding.
	type nv struct {
		node int
		vol  float64
	}
	vols := make([]nv, c.n)
	for i := 0; i < c.n; i++ {
		vols[i] = nv{i, tm.RowSum(i) + tm.ColSum(i)}
	}
	sort.Slice(vols, func(i, j int) bool {
		//sornlint:ignore floateq -- sort tie-break; equal keys fall through to the node id
		if vols[i].vol != vols[j].vol {
			return vols[i].vol > vols[j].vol
		}
		return vols[i].node < vols[j].node
	})

	clique := 0
	for _, seed := range vols {
		if assigned[seed.node] != -1 {
			continue
		}
		if clique >= c.nc {
			return nil, fmt.Errorf("controlplane: clustering overflow (internal error)")
		}
		members := []int{seed.node}
		assigned[seed.node] = clique
		for len(members) < k {
			best, bestAff := -1, math.Inf(-1)
			for cand := 0; cand < c.n; cand++ {
				if assigned[cand] != -1 {
					continue
				}
				a := 0.0
				for _, m := range members {
					a += aff(cand, m)
				}
				//sornlint:ignore floateq -- deterministic tie-break on identical affinities
				if a > bestAff || (a == bestAff && (best == -1 || cand < best)) {
					best, bestAff = cand, a
				}
			}
			members = append(members, best)
			assigned[best] = clique
		}
		clique++
	}
	return schedule.NewCliques(assigned)
}

// rebuildOnCliques builds a SORN schedule over an arbitrary equal-size
// partition by building on contiguous cliques and relabeling nodes.
func rebuildOnCliques(cl *schedule.Cliques, q float64) (*schedule.SORN, error) {
	k, ok := cl.Uniform()
	if !ok {
		return nil, fmt.Errorf("controlplane: reclustering produced non-uniform cliques")
	}
	n := cl.N()
	nc := cl.NumCliques()
	base, err := schedule.BuildSORN(schedule.SORNConfig{N: n, Nc: nc, Q: q})
	if err != nil {
		return nil, err
	}
	// contiguous id for node v = clique*k + localIndex; rename each
	// contiguous id to its real node (one relabeled copy per distinct
	// matching of the base schedule).
	toReal := make([]int, n) // contiguous -> real
	for v := 0; v < n; v++ {
		toReal[cl.CliqueOf(v)*k+cl.LocalIndex(v)] = v
	}
	relabeled, err := base.Schedule.Relabel(toReal)
	if err != nil {
		return nil, fmt.Errorf("controlplane: relabeled schedule invalid: %w", err)
	}
	return &schedule.SORN{
		Config:    base.Config,
		Cliques:   cl,
		Schedule:  relabeled,
		RealizedQ: base.RealizedQ,
		WIntra:    base.WIntra,
		WInter:    base.WInter,
	}, nil
}
