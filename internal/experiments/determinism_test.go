package experiments

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/obs"
)

// fig2fTestConfig is a small-but-real sweep: three points with the
// packet simulator on, sized to finish in a couple of seconds.
func fig2fTestConfig() Fig2fConfig {
	cfg := DefaultFig2fConfig()
	cfg.N, cfg.Nc = 64, 8
	cfg.Step = 0.5
	cfg.WarmupSlots, cfg.MeasureSlots, cfg.Backlog = 1500, 1500, 512
	cfg.Seed = 7
	return cfg
}

// TestFig2fDeterministic guards the determinism contract the linter
// (internal/lint) enforces statically: two identical seeded end-to-end
// runs — goroutine fan-out, packet simulation, fluid solve and all —
// must produce byte-identical results. Each Fig2f worker runs on its own
// rng.Split stream derived serially from the sweep seed, so goroutine
// scheduling must not be able to leak into the numbers.
func TestFig2fDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the packet simulator")
	}
	cfg := fig2fTestConfig()
	run := func() string {
		pts, err := Fig2f(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%+v", pts)
	}
	first := run()
	for i := 0; i < 2; i++ {
		if again := run(); again != first {
			t.Fatalf("identical seeded runs diverged:\nrun 0: %s\nrun %d: %s", first, i+1, again)
		}
	}
}

// TestFig2fSharedObserver checks Fig2f's capture model: one Observer
// attached to the whole sweep changes no point at any requested sweep
// concurrency, and its series rows carry one "x=…" run label per
// simulated point, in x order.
func TestFig2fSharedObserver(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the packet simulator")
	}
	for _, workers := range []int{1, 3} {
		cfg := fig2fTestConfig()
		cfg.SweepWorkers = workers
		want, err := Fig2f(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Obs = obs.New(obs.Options{MetricsEvery: 64})
		got, err := Fig2f(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("SweepWorkers=%d: observed sweep diverged:\nwithout: %+v\nwith:    %+v", workers, want, got)
		}
		var labels []string
		for _, row := range cfg.Obs.SeriesRows() {
			if len(labels) == 0 || labels[len(labels)-1] != row[0] {
				labels = append(labels, row[0])
			}
		}
		if wantLabels := []string{"x=0.00", "x=0.50", "x=1.00"}; !reflect.DeepEqual(labels, wantLabels) {
			t.Fatalf("SweepWorkers=%d: series run labels %q, want %q", workers, labels, wantLabels)
		}
	}
}

// TestFig2fSeedSensitivity is the counterpart: a different seed must
// actually change the simulated series, otherwise the determinism test
// above would pass vacuously.
func TestFig2fSeedSensitivity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the packet simulator")
	}
	cfg := fig2fTestConfig()
	a, err := Fig2f(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 8
	b, err := Fig2f(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", a) == fmt.Sprintf("%+v", b) {
		t.Fatal("changing the sweep seed did not change the simulated results")
	}
}
