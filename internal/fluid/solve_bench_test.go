package fluid_test

import (
	"fmt"
	"testing"

	"repro/internal/fluid"
	"repro/internal/model"
	"repro/internal/routing"
	"repro/internal/schedule"
	"repro/internal/workload"
)

// BenchmarkSolveSORN times fluid solves of SORN schedules: N=128 at the
// paper's headline locality, and the fluid-n512 benchmark workload's
// N=512 solve at that locality and at the two ends of its grid. At x = 0
// every pair crosses cliques (three-hop paths through every clique
// member); at x = 1 every pair stays inside its clique (two-hop VLB).
// The file holds only exported API, so scripts/bench.sh -base can copy
// it into an older checkout and time both sides with the same code.
func BenchmarkSolveSORN(b *testing.B) {
	b.Run("n128", func(b *testing.B) { benchmarkSolveSORN(b, 128, 8, 4.5, 0.56) })
	for _, x := range []float64{0, 0.56, 1} {
		b.Run(fmt.Sprintf("n512-x%v", x), func(b *testing.B) {
			benchmarkSolveSORN(b, 512, 16, model.SORNQClamped(x, 16), x)
		})
	}
}

func benchmarkSolveSORN(b *testing.B, n, nc int, q, x float64) {
	built, err := schedule.BuildSORN(schedule.SORNConfig{N: n, Nc: nc, Q: q})
	if err != nil {
		b.Fatal(err)
	}
	tm, err := workload.Locality(built.Cliques, x)
	if err != nil {
		b.Fatal(err)
	}
	router := routing.NewSORN(built)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fluid.Solve(built.Schedule, router, tm); err != nil {
			b.Fatal(err)
		}
	}
}
