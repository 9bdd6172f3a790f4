package experiments

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/model"
)

// TestSweepDeterminismAcrossConcurrency pins the sweep engine's contract
// at the experiment level: a sweep's results are bit-identical whether
// its points run serially inline (Concurrency 1), on a small fixed pool,
// or one worker per point — across a simulation-heavy sweep (Fig2f), an
// analytical sweep (QSweep), and the stateful two-design availability
// run.
func TestSweepDeterminismAcrossConcurrency(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the packet simulator")
	}

	t.Run("Fig2f", func(t *testing.T) {
		cfg := fig2fTestConfig()
		run := func(sweepWorkers int) string {
			cfg.SweepWorkers = sweepWorkers
			pts, err := Fig2f(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return fmt.Sprintf("%+v", pts)
		}
		// This also covers pooled ≡ fresh simulators. The grid has three
		// points, so the serial reference Resets one pooled simulator
		// between points, while SweepWorkers 3 and 7 give the pool one
		// simulator per point and start each point on a freshly built
		// one. (TestSimResetBitIdentity pins Reset ≡ New in netsim
		// directly.)
		ref := run(1)
		for _, workers := range []int{0, 2, 3, 7} {
			if got := run(workers); got != ref {
				t.Fatalf("SweepWorkers=%d diverged:\nserial: %s\ngot:    %s", workers, ref, got)
			}
		}
	})

	t.Run("QSweep", func(t *testing.T) {
		qs := []float64{1, 2, model.SORNQ(0.56), 6, 12}
		ref, err := QSweep(64, 8, 0.56, qs, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 2, 5} {
			got, err := QSweep(64, 8, 0.56, qs, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ref, got) {
				t.Fatalf("sweepWorkers=%d diverged:\nserial: %+v\ngot:    %+v", workers, ref, got)
			}
		}
	})

	t.Run("Availability", func(t *testing.T) {
		serial := availabilityScenario(t, 1)
		serial.SweepWorkers = 1
		ref, err := Availability(serial)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 2} {
			cfg := availabilityScenario(t, 1)
			cfg.SweepWorkers = workers
			got, err := Availability(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ref.SORN, got.SORN) || !reflect.DeepEqual(ref.Oblivious, got.Oblivious) {
				t.Fatalf("SweepWorkers=%d: windows diverged", workers)
			}
			assertStatsIdentical(t, workers, "sorn", &ref.SORNStats, &got.SORNStats)
			assertStatsIdentical(t, workers, "oblivious", &ref.ObliviousStats, &got.ObliviousStats)
		}
	})
}
