package schedule_test

import (
	"testing"

	"repro/internal/model"
	"repro/internal/routing"
	"repro/internal/schedule"
)

// routerSink keeps the compiler from dropping the benchmarked build.
var routerSink *routing.SORN

// BenchmarkBuildSORN prices a cold network build: n128 builds the
// schedule alone; n512 builds the fluid-n512 workload's schedule at the
// paper's headline locality plus its router, the build a cache miss in
// core pays.
func BenchmarkBuildSORN(b *testing.B) {
	for _, c := range []struct {
		name   string
		cfg    schedule.SORNConfig
		router bool
	}{
		{"n128", schedule.SORNConfig{N: 128, Nc: 8, Q: 4.5}, false},
		{"n512", schedule.SORNConfig{N: 512, Nc: 16, Q: model.SORNQ(0.56)}, true},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				built, err := schedule.BuildSORN(c.cfg)
				if err != nil {
					b.Fatal(err)
				}
				if c.router {
					routerSink = routing.NewSORN(built)
				}
			}
		})
	}
}
