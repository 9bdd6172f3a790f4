// Package fluid computes exact worst-case throughput for an oblivious or
// semi-oblivious routing scheme over a circuit schedule: it accumulates
// the expected load every traffic-matrix entry places on every directed
// virtual link (via the router's path distribution), compares against the
// link capacities the schedule provides, and reports the maximum demand
// scaling θ at which no link exceeds capacity.
//
// With a saturation traffic matrix (every row summing to 1 node
// bandwidth), θ is exactly the paper's throughput metric r: the fraction
// of node bandwidth deliverable to final destinations. This reproduces
// the theoretical series of Figure 2(f) from first principles rather than
// from the closed form, and cross-validates internal/model.
package fluid

import (
	"fmt"
	"math"

	"repro/internal/matching"
	"repro/internal/routing"
	"repro/internal/workload"
)

// Result reports a fluid solve.
type Result struct {
	// Theta is the max demand scaling with all links within capacity.
	Theta float64
	// BottleneckSrc/Dst identify the binding link.
	BottleneckSrc, BottleneckDst int
	// BottleneckLoad and BottleneckCap are that link's load (at scaling
	// 1) and capacity.
	BottleneckLoad, BottleneckCap float64
	// MeanHops is the demand-weighted mean path length.
	MeanHops float64
	// LinkCount is the number of loaded links.
	LinkCount int
}

// Solve computes link loads for the traffic matrix under the router's
// path distribution and returns the throughput scaling. The schedule
// provides capacities (fraction of node bandwidth per virtual link).
func Solve(s *matching.Schedule, router routing.Router, tm *workload.Matrix) (*Result, error) {
	if tm.N != s.N {
		return nil, fmt.Errorf("fluid: matrix over %d nodes, schedule over %d", tm.N, s.N)
	}
	if router.N() != s.N {
		return nil, fmt.Errorf("fluid: router %s over %d nodes, schedule over %d", router.Name(), router.N(), s.N)
	}
	if err := tm.Validate(); err != nil {
		return nil, err
	}

	// Capacities from the schedule: count integer slots per directed link
	// u→v (flat index u·n+v) and divide once by the period in the
	// bottleneck scan, so every capacity is an exact multiple of
	// 1/period. (Accumulating float64 increments of 1/period drifts for
	// non-power-of-2 periods once a link repeats.)
	n := s.N
	slotCount := make([]int32, n*n)
	for _, m := range s.Slots {
		for u, v := range m {
			slotCount[u*n+v]++
		}
	}

	// Expected loads from the router's path distribution, accumulated in
	// src, dst, Paths, hop order. One visit closure and one path buffer
	// serve every pair; visit reads the pair's rate and must not keep the
	// lent path. Hops are only range-checked here: whether each loaded
	// link exists is checked once per link after accumulation.
	load := make([]float64, n*n)
	var (
		rate, hopWeighted float64
		pathErr           error
	)
	visit := func(p routing.Route, prob float64) {
		hopWeighted += rate * prob * float64(p.Hops())
		for i := 0; i+1 < len(p); i++ {
			u, v := p[i], p[i+1]
			if uint(u) >= uint(n) || uint(v) >= uint(n) {
				pathErr = fmt.Errorf("fluid: router %s uses link %d->%d outside %d nodes",
					router.Name(), u, v, n)
				return
			}
			load[u*n+v] += rate * prob
		}
	}
	buf := make(routing.Route, 0, router.MaxHops()+1)
	demandTotal := 0.0
	for src := 0; src < tm.N; src++ {
		for dst := 0; dst < tm.N; dst++ {
			rate = tm.Rates[src][dst]
			if rate <= 0 {
				continue
			}
			demandTotal += rate
			buf = router.Paths(buf, src, dst, visit)
			if pathErr != nil {
				return nil, pathErr
			}
		}
	}
	//sornlint:ignore floateq -- exact zero: no positive rate was ever added
	if demandTotal == 0 {
		return nil, fmt.Errorf("fluid: traffic matrix is empty")
	}

	period := float64(s.Period())
	res := &Result{Theta: math.Inf(1), BottleneckSrc: -1, BottleneckDst: -1}
	for i, l := range load {
		if l <= 0 {
			continue
		}
		if slotCount[i] == 0 {
			return nil, fmt.Errorf("fluid: router %s uses link %d->%d absent from schedule",
				router.Name(), i/n, i%n)
		}
		res.LinkCount++
		c := float64(slotCount[i]) / period
		theta := c / l
		if theta < res.Theta {
			res.Theta = theta
			res.BottleneckSrc, res.BottleneckDst = i/n, i%n
			res.BottleneckLoad, res.BottleneckCap = l, c
		}
	}
	res.MeanHops = hopWeighted / demandTotal
	return res, nil
}

// WorstCaseTheta returns the minimum θ over a set of traffic matrices —
// the worst-case throughput over an adversarial family.
func WorstCaseTheta(s *matching.Schedule, router routing.Router, tms []*workload.Matrix) (float64, error) {
	worst := math.Inf(1)
	for _, tm := range tms {
		r, err := Solve(s, router, tm)
		if err != nil {
			return 0, err
		}
		if r.Theta < worst {
			worst = r.Theta
		}
	}
	if math.IsInf(worst, 1) {
		return 0, fmt.Errorf("fluid: no traffic matrices supplied")
	}
	return worst, nil
}
