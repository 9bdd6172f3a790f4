package fluid

import (
	"fmt"

	"repro/internal/routing"
)

// LinkBlastRadius returns the fraction of ordered source-destination
// pairs whose path distribution traverses the directed link failU→failV
// with positive probability — the failure "blast radius" the paper's §6
// argues modular (SORN-style) designs shrink relative to flat oblivious
// designs, where any link failure can touch flows between any pair.
func LinkBlastRadius(n int, router routing.Router, failU, failV int) (float64, error) {
	return blastRadius(n, router, func(p routing.Route) bool {
		for i := 0; i+1 < len(p); i++ {
			if p[i] == failU && p[i+1] == failV {
				return true
			}
		}
		return false
	}, func(src, dst int) bool { return false })
}

// NodeBlastRadius returns the fraction of ordered pairs (excluding those
// sourced at or destined to the failed node, which are lost regardless of
// design) whose path distribution transits the failed node.
func NodeBlastRadius(n int, router routing.Router, fail int) (float64, error) {
	return blastRadius(n, router, func(p routing.Route) bool {
		for _, node := range p[1 : len(p)-1] {
			if node == fail {
				return true
			}
		}
		return false
	}, func(src, dst int) bool { return src == fail || dst == fail })
}

func blastRadius(n int, router routing.Router, hit func(routing.Route) bool, skip func(src, dst int) bool) (float64, error) {
	if n < 2 {
		return 0, fmt.Errorf("fluid: blast radius needs n >= 2, got %d", n)
	}
	affected, total := 0, 0
	found := false
	visit := func(p routing.Route, prob float64) {
		if !found && prob > 0 && hit(p) {
			found = true
		}
	}
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst || skip(src, dst) {
				continue
			}
			total++
			found = false
			router.Paths(src, dst, visit)
			if found {
				affected++
			}
		}
	}
	if total == 0 {
		return 0, fmt.Errorf("fluid: no pairs to evaluate")
	}
	return float64(affected) / float64(total), nil
}
