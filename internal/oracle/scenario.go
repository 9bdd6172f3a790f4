package oracle

import (
	"fmt"
	"math/big"

	"repro/internal/matching"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/schedule"
	"repro/internal/workload"
)

// scenario is a fully built Spec: the schedule, router, and traffic
// matrix all three oracles run against, plus the exact rational mirror
// of the traffic matrix the rational checks use.
type scenario struct {
	spec    Spec
	sched   *matching.Schedule
	router  routing.Router
	cliques *schedule.Cliques // sorn only
	sorn    *schedule.SORN    // sorn only
	orn     *schedule.OptimalORN

	tm *workload.Matrix
	// ratTM[s][d] is the exact rational of tm.Rates[s][d]: the simple
	// rational the float was rounded from when one exists (1/(n−1) style
	// constructor outputs), else the float's exact binary expansion.
	// nil entries are zero.
	ratTM [][]*big.Rat
}

// build materializes a spec. Everything random (permutation TM shift,
// gravity masses) derives from spec.Seed via dedicated rng.Split
// streams, so a spec line reproduces the scenario bit-for-bit.
func build(spec Spec) (*scenario, error) {
	sc := &scenario{spec: spec}
	switch spec.Design {
	case "sorn":
		if spec.Nc < 2 || spec.N%spec.Nc != 0 || spec.N/spec.Nc < 2 {
			return nil, fmt.Errorf("oracle: sorn needs Nc >= 2 cliques of >= 2 nodes, got n=%d nc=%d", spec.N, spec.Nc)
		}
		q := spec.Q
		if q <= 0 {
			q = model.SORNQClamped(spec.X, 16)
		}
		s, err := schedule.BuildSORN(schedule.SORNConfig{N: spec.N, Nc: spec.Nc, Q: q})
		if err != nil {
			return nil, err
		}
		sc.sorn, sc.cliques, sc.sched = s, s.Cliques, s.Schedule
		sc.router = routing.NewSORN(s)
	case "orn1":
		if spec.N < 4 {
			return nil, fmt.Errorf("oracle: orn1 needs n >= 4, got %d", spec.N)
		}
		sc.sched = matching.RoundRobin(spec.N)
		v, err := routing.NewVLB(sc.sched)
		if err != nil {
			return nil, err
		}
		sc.router = v
	case "orn2":
		o, err := schedule.BuildOptimalORN(spec.N, 2)
		if err != nil {
			return nil, err
		}
		sc.orn, sc.sched = o, o.Schedule
		sc.router = routing.NewORN(o)
	case "direct":
		if spec.N < 3 {
			return nil, fmt.Errorf("oracle: direct needs n >= 3, got %d", spec.N)
		}
		sc.sched = matching.RoundRobin(spec.N)
		d, err := routing.NewDirect(sc.sched)
		if err != nil {
			return nil, err
		}
		sc.router = d
	default:
		return nil, fmt.Errorf("oracle: unknown design %q", spec.Design)
	}

	tm, err := buildTM(spec, sc.cliques)
	if err != nil {
		return nil, err
	}
	if err := tm.Validate(); err != nil {
		return nil, err
	}
	sc.tm = tm
	sc.ratTM = rationalize(tm)
	return sc, nil
}

// tmRng returns the random stream a given TM family draws from: split
// off the spec seed, disjoint from the netsim streams (which split off
// the seed directly inside the simulator).
func tmRng(spec Spec) *rng.RNG {
	return rng.New(spec.Seed ^ 0x74616d5f6f7261cb).Split()
}

func buildTM(spec Spec, cl *schedule.Cliques) (*workload.Matrix, error) {
	switch spec.TM {
	case "uniform":
		return workload.Uniform(spec.N), nil
	case "locality":
		if cl == nil {
			return nil, fmt.Errorf("oracle: locality TM needs a clique structure (design %s)", spec.Design)
		}
		return workload.Locality(cl, spec.TMParam)
	case "permutation":
		// A random cyclic shift: fixed-point-free for every shift in
		// [1, n), and node-transitive, which the netsim saturation
		// comparison relies on.
		shift := 1 + tmRng(spec).Intn(spec.N-1)
		perm := make([]int, spec.N)
		for i := range perm {
			perm[i] = (i + shift) % spec.N
		}
		return workload.Permutation(perm)
	case "hotspot":
		hot := 1 + spec.N/8
		return workload.Hotspot(spec.N, hot, spec.TMParam)
	case "gravity":
		if cl == nil {
			return nil, fmt.Errorf("oracle: gravity TM needs a clique structure (design %s)", spec.Design)
		}
		r := tmRng(spec)
		mass := make([]float64, cl.NumCliques())
		for i := range mass {
			mass[i] = float64(1 + r.Intn(7))
		}
		return workload.Gravity(cl, mass)
	default:
		return nil, fmt.Errorf("oracle: unknown tm %q", spec.TM)
	}
}

// rationalize mirrors a float traffic matrix exactly: each positive rate
// becomes the simple rational it was rounded from when RatFromFloat
// recovers one (all constructor-emitted rates of the uniform, locality,
// and permutation families), else its exact binary expansion via
// big.Rat.SetFloat64 (renormalized hotspot/gravity rates). Either way
// the rational matrix represents the float matrix with zero error at
// the granularity the rational checks need.
func rationalize(tm *workload.Matrix) [][]*big.Rat {
	out := make([][]*big.Rat, tm.N)
	for s := range out {
		out[s] = make([]*big.Rat, tm.N)
		for d, rate := range tm.Rates[s] {
			if rate <= 0 {
				continue
			}
			if r, ok := model.RatFromFloat(rate); ok {
				out[s][d] = r
			} else {
				out[s][d] = new(big.Rat).SetFloat64(rate)
			}
		}
	}
	return out
}
