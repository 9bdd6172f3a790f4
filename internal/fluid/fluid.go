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

	stride := loadStride(s.N)
	load, hopWeighted, demandTotal := linkLoads(router, tm, stride)
	//sornlint:ignore floateq -- exact zero: no positive rate was ever added
	if demandTotal == 0 {
		return nil, fmt.Errorf("fluid: traffic matrix is empty")
	}
	return bottleneck(s, router, load, stride, hopWeighted, demandTotal)
}

// loadStride returns the row stride of the load matrix for n nodes: n
// rounded up to whole 64-byte lines of float64s, plus one line when
// that count is even. A row of an even number of lines, such as 4 KiB
// at n=512, puts the same column of every row in a few L1 cache sets,
// and one pair's adds down a column (link y→dst over the clique
// members y) then evict each other; an odd count spreads consecutive
// rows over every set.
func loadStride(n int) int {
	lines := (n + 7) / 8
	if lines%2 == 0 {
		lines++
	}
	return lines * 8
}

// linkLoads accumulates the expected load of every directed link u→v
// (at load[u·stride+v]) under the router's path distribution, in src,
// dst, Paths, hop order: one Router.AddLoads call per positive-rate
// pair. It returns the loads, the demand-weighted hop total and the
// total demand. The caller has checked that router and matrix share n.
func linkLoads(router routing.Router, tm *workload.Matrix, stride int) (load []float64, hopWeighted, demandTotal float64) {
	load = make([]float64, tm.N*stride)
	for src, row := range tm.Rates {
		for dst, rate := range row {
			if rate <= 0 {
				continue
			}
			demandTotal += rate
			hopWeighted = router.AddLoads(load, stride, src, dst, rate, hopWeighted)
		}
	}
	return load, hopWeighted, demandTotal
}

// bottleneck compares the loads against the schedule's capacities (the
// fraction of node bandwidth per virtual link) and reports the binding
// link, scanning links in u, v order. A loaded link the schedule never
// provides is an error.
func bottleneck(s *matching.Schedule, router routing.Router, load []float64, stride int, hopWeighted, demandTotal float64) (*Result, error) {
	// Count integer slots per directed link and divide once by the
	// period, so every capacity is an exact multiple of 1/period.
	// (Accumulating float64 increments of 1/period drifts for
	// non-power-of-2 periods once a link repeats.) The counts are taken
	// for rowBlock source rows at a time, slots[(u−lo)·n+v] for link
	// u→v, which keeps the scratch at rowBlock rows and reads each
	// matching's block of rows in one sequential run.
	const rowBlock = 64
	n := s.N
	slots := make([]int32, min(n, rowBlock)*n)
	period := float64(s.Period())
	res := &Result{Theta: math.Inf(1), BottleneckSrc: -1, BottleneckDst: -1}
	for lo := 0; lo < n; lo += rowBlock {
		hi := min(lo+rowBlock, n)
		clear(slots)
		for _, m := range s.Slots {
			for i, v := range m[lo:hi] {
				slots[i*n+v]++
			}
		}
		for u := lo; u < hi; u++ {
			row := slots[(u-lo)*n : (u-lo+1)*n]
			for v, l := range load[u*stride : u*stride+n] {
				if l <= 0 {
					continue
				}
				if row[v] == 0 {
					return nil, fmt.Errorf("fluid: router %s uses link %d->%d absent from schedule",
						router.Name(), u, v)
				}
				res.LinkCount++
				c := float64(row[v]) / period
				theta := c / l
				if theta < res.Theta {
					res.Theta = theta
					res.BottleneckSrc, res.BottleneckDst = u, v
					res.BottleneckLoad, res.BottleneckCap = l, c
				}
			}
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
