package sweep

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/rng"
)

func TestStreamsMatchSerialSplits(t *testing.T) {
	// Point i's stream must be the i-th serial Split of the sweep seed —
	// the derivation Fig2f has always used — for every concurrency.
	const seed, points = 42, 7
	want := make([]uint64, points)
	root := rng.New(seed)
	for i := range want {
		want[i] = root.Split().Uint64()
	}
	for _, conc := range []int{1, 2, points + 3} {
		got, err := Run(Config{Concurrency: conc, Seed: seed}, points,
			func(p Point) (uint64, error) { return p.RNG.Uint64(), nil })
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("conc %d point %d drew %d, want serial-split %d", conc, i, got[i], want[i])
			}
		}
	}
}

func TestRunDeterministicAcrossConcurrency(t *testing.T) {
	run := func(conc int) []string {
		out, err := Run(Config{Concurrency: conc, Seed: 9}, 23, func(p Point) (string, error) {
			return fmt.Sprintf("%d:%d", p.Index, p.RNG.Uint64()), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial := run(1)
	for _, conc := range []int{0, 2, 5, 16} {
		if got := run(conc); !reflect.DeepEqual(got, serial) {
			t.Fatalf("Concurrency %d diverged from serial:\n%v\n%v", conc, got, serial)
		}
	}
}

func TestRunReportsLowestIndexedError(t *testing.T) {
	sentinel := errors.New("boom")
	var mu sync.Mutex
	ran := make(map[int]bool)
	_, err := Run(Config{Concurrency: 4, Seed: 1}, 9, func(p Point) (int, error) {
		mu.Lock()
		ran[p.Index] = true
		mu.Unlock()
		if p.Index == 6 || p.Index == 3 {
			return 0, fmt.Errorf("point %d: %w", p.Index, sentinel)
		}
		return p.Index, nil
	})
	if err == nil || !errors.Is(err, sentinel) {
		t.Fatalf("error %v does not wrap the point failure", err)
	}
	if !strings.Contains(err.Error(), "point 3") {
		t.Fatalf("error %q is not the lowest-indexed failure", err)
	}
	if len(ran) != 9 {
		t.Fatalf("only %d of 9 points ran; failures must not cancel independent points", len(ran))
	}
}

func TestRunEmpty(t *testing.T) {
	out, err := Run(Config{}, 0, func(p Point) (int, error) { return 0, nil })
	if err != nil || out != nil {
		t.Fatalf("empty sweep: out=%v err=%v", out, err)
	}
}

func TestWorkerIndexIsDenseAndBounded(t *testing.T) {
	c := Config{Concurrency: 3}
	const points = 12
	workers, err := Run(c, points, func(p Point) (int, error) { return p.Worker, nil })
	if err != nil {
		t.Fatal(err)
	}
	max := c.Workers(points)
	for i, w := range workers {
		if w < 0 || w >= max {
			t.Fatalf("point %d ran on worker %d, outside [0,%d)", i, w, max)
		}
	}
}

func TestWorkersResolution(t *testing.T) {
	cases := []struct {
		conc, points, want int
	}{
		{1, 100, 1},
		{4, 100, 4},
		{4, 2, 2},   // capped at the point count
		{0, 1, 1},   // auto, single point
		{-1, 10, 1}, // degenerate negatives run serially
	}
	for _, c := range cases {
		if got := (Config{Concurrency: c.conc}).Workers(c.points); got != c.want {
			t.Errorf("Workers(conc=%d, points=%d) = %d, want %d", c.conc, c.points, got, c.want)
		}
	}
	if got := (Config{}).Workers(1 << 20); got != runtime.GOMAXPROCS(0) {
		t.Errorf("auto concurrency resolved to %d, want GOMAXPROCS=%d", got, runtime.GOMAXPROCS(0))
	}
}

func TestSimWorkersComposition(t *testing.T) {
	// The deprecated mapping the benchmark module still calls: explicit
	// per-sim settings pass through; "auto" (0) becomes 1 only when the
	// sweep itself is concurrent.
	concurrent := Config{Concurrency: 4}
	serial := Config{Concurrency: 1}
	if got := concurrent.SimWorkers(10, 0); got != 1 {
		t.Errorf("auto sim workers under a concurrent sweep = %d, want 1", got)
	}
	if got := concurrent.SimWorkers(1, 0); got != 0 {
		t.Errorf("a one-point sweep is serial; auto should pass through, got %d", got)
	}
	if got := serial.SimWorkers(10, 0); got != 0 {
		t.Errorf("auto sim workers under a serial sweep = %d, want 0 (auto)", got)
	}
	for _, w := range []int{1, 3, 8} {
		if got := concurrent.SimWorkers(10, w); got != w {
			t.Errorf("explicit sim workers %d rewritten to %d", w, got)
		}
	}
}
