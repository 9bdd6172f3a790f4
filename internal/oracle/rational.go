package oracle

import (
	"fmt"
	"math/big"

	"repro/internal/matching"
	"repro/internal/model"
	"repro/internal/routing"
)

// ratResult is a rational fluid solve: exact θ and the binding link.
type ratResult struct {
	theta                        *big.Rat
	bottleneckSrc, bottleneckDst int
}

// solveRat is the exact mirror of fluid.Solve: capacities are integer
// slot counts over the period, path probabilities are the exact
// rationals their floats were rounded from (every router in this repo
// emits probabilities of the form 1/k, which RatFromFloat recovers
// uniquely), and loads accumulate in big.Rat. The returned θ carries no
// float error at all, which is what lets the closed-form comparisons be
// exact instead of tolerance-banded.
func solveRat(s *matching.Schedule, router routing.Router, ratTM [][]*big.Rat) (*ratResult, error) {
	n := s.N
	slotCount := make([][]int64, n)
	for u := range slotCount {
		slotCount[u] = make([]int64, n)
	}
	for _, m := range s.Slots {
		for u, v := range m {
			slotCount[u][v]++
		}
	}
	period := int64(s.Period())

	load := make([][]*big.Rat, n)
	for u := range load {
		load[u] = make([]*big.Rat, n)
	}
	var (
		rate    *big.Rat
		pathErr error
	)
	contrib := new(big.Rat)
	visit := func(p routing.Route, prob float64) {
		if pathErr != nil {
			return
		}
		rp, ok := model.RatFromFloat(prob)
		if !ok {
			pathErr = fmt.Errorf("oracle: %s path probability %v is not a recoverable rational",
				router.Name(), prob)
			return
		}
		contrib.Mul(rate, rp)
		for i := 0; i+1 < len(p); i++ {
			u, v := p[i], p[i+1]
			if slotCount[u][v] == 0 {
				pathErr = fmt.Errorf("oracle: router %s uses link %d->%d absent from schedule",
					router.Name(), u, v)
				return
			}
			if load[u][v] == nil {
				load[u][v] = new(big.Rat)
			}
			load[u][v].Add(load[u][v], contrib)
		}
	}
	buf := make(routing.Route, 0, router.MaxHops()+1)
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			rate = ratTM[src][dst]
			if rate == nil || pathErr != nil {
				continue
			}
			buf = router.Paths(buf, src, dst, visit)
		}
	}
	if pathErr != nil {
		return nil, pathErr
	}

	res := &ratResult{bottleneckSrc: -1, bottleneckDst: -1}
	cap := new(big.Rat)
	theta := new(big.Rat)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			l := load[u][v]
			if l == nil || l.Sign() == 0 {
				continue
			}
			cap.SetFrac64(slotCount[u][v], period)
			theta.Quo(cap, l)
			if res.theta == nil || theta.Cmp(res.theta) < 0 {
				res.theta = new(big.Rat).Set(theta)
				res.bottleneckSrc, res.bottleneckDst = u, v
			}
		}
	}
	if res.theta == nil {
		return nil, fmt.Errorf("oracle: traffic matrix is empty")
	}
	return res, nil
}

// relabelRat permutes a rational traffic matrix: entry (s, d) moves to
// (perm[s], perm[d]), sharing the underlying rationals (read-only use).
func relabelRat(ratTM [][]*big.Rat, perm []int) [][]*big.Rat {
	n := len(ratTM)
	out := make([][]*big.Rat, n)
	for s := range out {
		out[s] = make([]*big.Rat, n)
	}
	for s := range ratTM {
		for d, r := range ratTM[s] {
			if r != nil {
				out[perm[s]][perm[d]] = r
			}
		}
	}
	return out
}
