package netsim

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"
	"unsafe"

	"repro/internal/matching"
	"repro/internal/obs"
	"repro/internal/routing"
	"repro/internal/schedule"
	"repro/internal/workload"
)

// A 3D optimal ORN routes over up to 2h = 6 hops, the longest route a
// cell can hold: these scenarios are the ones that store and read every
// waypoint slot of the cell layout (SORN's 3-hop routes fill two of the
// five).

func TestCellIs16Bytes(t *testing.T) {
	if got := unsafe.Sizeof(cell{}); got != 16 {
		t.Fatalf("cell is %d bytes, want 16: every queue push, pop and ring write copies it", got)
	}
}

// orn3D builds the 27-node, 3-dimensional optimal ORN (base 3).
func orn3D(t *testing.T) (*matching.Schedule, routing.Router) {
	t.Helper()
	o, err := schedule.BuildOptimalORN(27, 3)
	if err != nil {
		t.Fatal(err)
	}
	if o.H*2 != maxWaypoints {
		t.Fatalf("ORN h=%d routes over %d hops; the scenarios want the cell limit %d", o.H, 2*o.H, maxWaypoints)
	}
	return o.Schedule, routing.NewORN(o)
}

func orn3DConfig(t *testing.T, workers int) Config {
	t.Helper()
	sched, router := orn3D(t)
	return Config{Schedule: sched, Router: router, SlotNS: 100, PropNS: 300,
		Seed: 42, LatencySampleEvery: 4, Workers: workers}
}

func runORN3DSaturated(t *testing.T, s *Sim) *Stats {
	t.Helper()
	st, err := s.RunSaturated(SaturationConfig{
		TM:            workload.Uniform(27),
		Size:          workload.FixedSize(4),
		TargetBacklog: 64,
		WarmupSlots:   600,
		MeasureSlots:  1800,
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// statsFingerprint renders every counter, the per-hop sample counts and
// an FNV-64a hash of every sample stream's bits in insertion order.
func statsFingerprint(st *Stats, n int) string {
	h := fnv.New64a()
	var b [8]byte
	add := func(vals []float64) {
		for _, v := range vals {
			u := math.Float64bits(v)
			for i := range b {
				b[i] = byte(u >> (8 * i))
			}
			_, _ = h.Write(b[:]) // a hash.Hash Write never fails
		}
	}
	add(st.LatencySlots.Values())
	add(st.FCTSlots.Values())
	hops := make([]int, len(st.LatencyByHops))
	for i := range st.LatencyByHops {
		add(st.LatencyByHops[i].Values())
		hops[i] = st.LatencyByHops[i].Count()
	}
	return fmt.Sprintf("deliv=%d inj=%d sent=%d idle=%d lost=%d drop=%d meas=%d compl=%d hops=%v samples=%016x r=%.6f",
		st.DeliveredCells, st.InjectedCells, st.SentCells, st.IdleSlots, st.LostCells,
		st.DroppedCells, st.MeasuredSlots, st.CompletedFlows, hops, h.Sum64(), st.Throughput(n))
}

// TestORN3DStatsGolden pins a saturated 6-hop run to the Stats the
// 24-byte cell layout (every waypoint stored) produced. A layout change
// that misplaces any waypoint reroutes cells and moves these numbers.
func TestORN3DStatsGolden(t *testing.T) {
	s, err := New(orn3DConfig(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	st := runORN3DSaturated(t, s)
	if st.LatencyByHops[6].Count() == 0 {
		t.Fatal("no 6-hop latency samples: the scenario no longer fills the cell")
	}
	const want = "deliv=11802 inj=12176 sent=47980 idle=620 lost=0 drop=0 meas=1800 compl=2861 " +
		"hops=[0 45 228 747 904 759 247 0] samples=905e0d4718e09526 r=0.242840"
	if got := statsFingerprint(st, 27); got != want {
		t.Fatalf("ORN h=3 saturated stats moved:\n  got  %s\n  want %s", got, want)
	}
}

func TestParallelDeterminismORN3DSaturated(t *testing.T) {
	runScenario(t, func(t *testing.T, workers int) *Sim {
		s, err := New(orn3DConfig(t, workers))
		if err != nil {
			t.Fatal(err)
		}
		runORN3DSaturated(t, s)
		return s
	})
}

// orn3DChurn runs Poisson traffic over the 3D ORN through a node
// failure, a swap to 2-hop VLB with cells queued and in flight (queued
// cells re-route, in-flight ones re-route on landing) and a swap back.
func orn3DChurn(t *testing.T, s *Sim) {
	t.Helper()
	s.StartMeasuring()
	gen, err := workload.NewPoissonFlows(workload.Uniform(27), workload.FixedSize(3), 0.3, 9)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunOpenLoop(gen.Window(0, 400), 400); err != nil {
		t.Fatal(err)
	}
	s.FailNode(5)
	flat := matching.RoundRobin(27)
	vlb, err := routing.NewVLB(flat)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Reconfigure(flat, vlb); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunOpenLoop(gen.Window(400, 600), 600); err != nil {
		t.Fatal(err)
	}
	s.RepairNode(5)
	sched, router := orn3D(t)
	if err := s.Reconfigure(sched, router); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunOpenLoop(gen.Window(600, 1000), 1000); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20000 && !s.Drained(); i++ {
		s.Step()
	}
}

func TestDenseActiveEquivalenceORN3D(t *testing.T) {
	runDenseActive(t, func(t *testing.T, dense bool, workers int) *Sim {
		cfg := orn3DConfig(t, workers)
		cfg.LatencySampleEvery = 1
		s, err := newEngine(cfg, dense)
		if err != nil {
			t.Fatal(err)
		}
		orn3DChurn(t, s)
		if !s.Drained() {
			t.Fatal("ORN h=3 churn scenario did not drain")
		}
		if s.Stats().LatencyByHops[6].Count() == 0 {
			t.Fatal("no 6-hop deliveries in the churn scenario")
		}
		return s
	})
}

// TestSimResetBitIdentityORN3D dirties a 27-node simulator under a
// different configuration — two planes, a queue limit, an observer,
// churn through 6-hop and 2-hop routing — and requires the Reset
// simulator to reproduce a fresh saturated ORN h=3 run exactly.
func TestSimResetBitIdentityORN3D(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := orn3DConfig(t, workers)
			fresh, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			runORN3DSaturated(t, fresh)

			dirty := cfg
			dirty.Seed = 99
			dirty.Planes = 2
			dirty.QueueLimit = 8
			dirty.Obs = obs.New(obs.Options{})
			pooled, err := New(dirty)
			if err != nil {
				t.Fatal(err)
			}
			orn3DChurn(t, pooled)
			if err := pooled.Reset(cfg); err != nil {
				t.Fatal(err)
			}
			runORN3DSaturated(t, pooled)
			compareSims(t, fresh, pooled)
		})
	}
}

// TestRejectsRoutesLongerThanCell: a 4D ORN routes over 8 hops, more
// than a cell holds. New and Reconfigure must refuse it with an error,
// and a refused Reconfigure leaves the simulator running as before.
func TestRejectsRoutesLongerThanCell(t *testing.T) {
	o, err := schedule.BuildOptimalORN(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	long := routing.NewORN(o)
	if long.MaxHops() <= maxWaypoints {
		t.Fatalf("ORN h=4 routes over %d hops, not more than %d", long.MaxHops(), maxWaypoints)
	}
	if _, err := New(Config{Schedule: o.Schedule, Router: long}); err == nil {
		t.Error("New accepted an 8-hop router")
	}
	flat := matching.RoundRobin(16)
	vlb, err := routing.NewVLB(flat)
	if err != nil {
		t.Fatal(err)
	}
	s := newSim(t, flat, vlb, 3)
	s.StartMeasuring()
	f := s.InjectFlow(0, 9, 4)
	if err := s.Reconfigure(o.Schedule, long); err == nil {
		t.Fatal("Reconfigure accepted an 8-hop router")
	}
	for i := 0; i < 200 && !f.Done(); i++ {
		s.Step()
	}
	if !f.Done() {
		t.Fatalf("flow stranded after a refused Reconfigure: delivered %d/4", f.Delivered())
	}
}
