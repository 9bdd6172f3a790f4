package netsim

import (
	"fmt"
	"testing"

	"repro/internal/matching"
	"repro/internal/obs"
	"repro/internal/routing"
	"repro/internal/schedule"
	"repro/internal/workload"
)

// sornResetConfig is the "target" configuration the bit-identity checks
// run: per-pair saturation exercises the dirty-pair worklist and
// freshPair accounting on top of the queues, ring, and samplers.
func sornResetConfig(t *testing.T, workers int) Config {
	t.Helper()
	sc, err := schedule.BuildSORN(schedule.SORNConfig{N: 32, Nc: 4, Q: 2})
	if err != nil {
		t.Fatal(err)
	}
	return Config{Schedule: sc.Schedule, Router: routing.NewSORN(sc),
		SlotNS: 100, PropNS: 300, Seed: 7, LatencySampleEvery: 8, Workers: workers}
}

func runSaturatedTarget(t *testing.T, s *Sim) {
	t.Helper()
	if _, err := s.RunSaturated(SaturationConfig{
		TM:             workload.Uniform(32),
		Size:           workload.FixedSize(2),
		PerPairBacklog: 4,
		WarmupSlots:    300,
		MeasureSlots:   900,
	}); err != nil {
		t.Fatal(err)
	}
}

// dirtySim builds a simulator under a deliberately different
// configuration (flat schedule, two planes, queue limit, observer
// attached) and drags it through everything that leaves residue: queue
// growth, failures and repairs, a purge, a mid-run reconfiguration.
// What comes back is the worst case a pooled Sim hands to Reset. dense
// runs it all on the dense reference engine.
func dirtySim(t *testing.T, workers int, dense bool) *Sim {
	t.Helper()
	n := 32
	sched := matching.RoundRobin(n)
	v, err := routing.NewVLB(sched)
	if err != nil {
		t.Fatal(err)
	}
	s, err := newEngine(Config{Schedule: sched, Router: v, SlotNS: 100, PropNS: 500,
		Seed: 99, LatencySampleEvery: 2, Planes: 2, QueueLimit: 64,
		Workers: workers, Obs: obs.New(obs.Options{})}, dense)
	if err != nil {
		t.Fatal(err)
	}
	s.StartMeasuring()
	gen, err := workload.NewPoissonFlows(workload.Uniform(n), workload.FixedSize(5), 0.4, 13)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunOpenLoop(gen.Window(0, 200), 200); err != nil {
		t.Fatal(err)
	}
	s.FailNode(3) // purges node 3's queues
	s.FailLink(1, 2)
	if _, err := s.RunOpenLoop(gen.Window(200, 300), 300); err != nil {
		t.Fatal(err)
	}
	s.RepairNode(3)
	sc, err := schedule.BuildSORN(schedule.SORNConfig{N: n, Nc: 4, Q: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Reconfigure(sc.Schedule, routing.NewSORN(sc)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunOpenLoop(nil, 350); err != nil {
		t.Fatal(err)
	}
	return s
}

// compareSims asserts the pooled run reproduced the fresh run exactly:
// Stats bit-identical (counters and sample streams) plus the
// queue/flow-level invariants runScenario checks.
func compareSims(t *testing.T, fresh, pooled *Sim) {
	t.Helper()
	statsEqual(t, &fresh.stats, &pooled.stats)
	if fresh.Backlog() != pooled.Backlog() || fresh.InFlight() != pooled.InFlight() {
		t.Fatalf("backlog/inflight: %d/%d vs %d/%d",
			fresh.Backlog(), fresh.InFlight(), pooled.Backlog(), pooled.InFlight())
	}
	if fresh.FlowsCompleted() != pooled.FlowsCompleted() {
		t.Fatalf("flows completed: %d vs %d", fresh.FlowsCompleted(), pooled.FlowsCompleted())
	}
	if fresh.Slot() != pooled.Slot() {
		t.Fatalf("slot: %d vs %d", fresh.Slot(), pooled.Slot())
	}
}

// TestSimResetBitIdentity pins the Sim.Reset contract the sweep engine's
// per-worker pool relies on: a Reset simulator is indistinguishable from
// a freshly allocated one, no matter what the previous run did to it —
// including failures, repairs, purges, reconfigurations, plane-count and
// schedule changes, and an attached observer.
func TestSimResetBitIdentity(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := sornResetConfig(t, workers)

			fresh, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			runSaturatedTarget(t, fresh)

			t.Run("after-faulty-run", func(t *testing.T) {
				pooled := dirtySim(t, workers, false)
				if err := pooled.Reset(cfg); err != nil {
					t.Fatal(err)
				}
				runSaturatedTarget(t, pooled)
				compareSims(t, fresh, pooled)
			})

			t.Run("repeated-same-config", func(t *testing.T) {
				// The pool's hot case: same schedule pointer, new seed run,
				// then back — exercises the hasCircuit reuse path and the
				// rewound flow arena.
				pooled, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				runSaturatedTarget(t, pooled)
				other := cfg
				other.Seed = 1234
				if err := pooled.Reset(other); err != nil {
					t.Fatal(err)
				}
				runSaturatedTarget(t, pooled)
				if err := pooled.Reset(cfg); err != nil {
					t.Fatal(err)
				}
				runSaturatedTarget(t, pooled)
				compareSims(t, fresh, pooled)
			})

			t.Run("post-fault-reset-keeps-faults-out", func(t *testing.T) {
				// Fault state must not leak: fail mid-run, Reset, and the
				// target run again matches the fault-free fresh run.
				pooled, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				pooled.FailLink(0, 5)
				pooled.FailNode(9)
				runSaturatedTarget(t, pooled)
				if err := pooled.Reset(cfg); err != nil {
					t.Fatal(err)
				}
				runSaturatedTarget(t, pooled)
				compareSims(t, fresh, pooled)
			})
		})
	}
}

func TestSimResetOpenLoopAfterPlaneChange(t *testing.T) {
	// The delay ring is sized (prop+1)·n·planes; resetting across a
	// plane-count change must resize it, and the reused simulator must
	// still reproduce a fresh open-loop run sample-for-sample.
	n := 32
	sched := matching.RoundRobin(n)
	v, err := routing.NewVLB(sched)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Schedule: sched, Router: v, SlotNS: 100, PropNS: 500,
		Seed: 21, LatencySampleEvery: 1, Planes: 2, Workers: 1}
	runTarget := func(s *Sim) *Stats {
		s.StartMeasuring()
		gen, err := workload.NewPoissonFlows(workload.Uniform(n), workload.FixedSize(3), 0.2, 5)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.RunOpenLoop(gen.Window(0, 400), 400); err != nil {
			t.Fatal(err)
		}
		return s.Stats()
	}
	fresh, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runTarget(fresh)

	pooled := dirtySim(t, 1, false) // dirty run used Planes 2 with PropNS 500 on the same n... but a different schedule
	if err := pooled.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	runTarget(pooled)
	compareSims(t, fresh, pooled)

	// And shrink to one plane: the ring reallocates, results still match.
	one := cfg
	one.Planes = 1
	freshOne, err := New(one)
	if err != nil {
		t.Fatal(err)
	}
	runTarget(freshOne)
	if err := pooled.Reset(one); err != nil {
		t.Fatal(err)
	}
	runTarget(pooled)
	compareSims(t, freshOne, pooled)
}

func TestSimResetRejectsNodeCountChange(t *testing.T) {
	s := dirtySim(t, 1, false)
	small := matching.RoundRobin(16)
	v, err := routing.NewVLB(small)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Reset(Config{Schedule: small, Router: v}); err == nil {
		t.Fatal("Reset across node counts must error")
	}
}
