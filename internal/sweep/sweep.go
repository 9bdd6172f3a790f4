// Package sweep is the deterministic bounded-parallel runner behind
// every experiment-level parameter sweep (throughput vs. locality,
// q-sweeps, plane sweeps, availability runs). It replaces the two run
// shapes the experiments grew organically — one unbounded goroutine per
// point, and strictly serial loops — with a fixed worker pool whose
// results are bit-identical for every concurrency setting.
//
// The determinism contract mirrors netsim's worker sharding: Concurrency
// is purely a wall-clock knob. It holds because
//
//   - each point's random stream is one rng.Split derived *serially*
//     from the sweep seed before any worker starts, so goroutine
//     scheduling can never reorder draws;
//   - points write only their own slot of the result and error arrays,
//     merged implicitly by index;
//   - a sweep that shares an observer runs serially (an obs.Observer
//     serves one simulation at a time), so event streams also come out
//     in point-index order.
//
// Per-point work composes with netsim's own Workers sharding through
// SimWorkers: a concurrent sweep demotes "auto" per-sim parallelism to
// serial so k points don't oversubscribe the host with k×GOMAXPROCS
// shard goroutines.
package sweep

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/rng"
)

// Config parameterizes a sweep run.
type Config struct {
	// Concurrency bounds how many points run at once: 0 picks one worker
	// per CPU (GOMAXPROCS), 1 runs points serially inline (no goroutines),
	// k runs a fixed pool of k workers. Every value yields bit-identical
	// results — see the package comment — so the choice is purely a
	// wall-clock knob, exactly like netsim's Config.Workers.
	Concurrency int
	// Seed roots the per-point rng streams. Point i's stream is the i-th
	// serial Split of rng.New(Seed), independent of worker scheduling.
	Seed uint64
}

// Workers resolves the pool size for a sweep of the given point count:
// Concurrency 0 becomes GOMAXPROCS, and the pool is capped at the point
// count (extra workers would only idle).
func (c Config) Workers(points int) int {
	w := c.Concurrency
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > points {
		w = points
	}
	if w < 1 {
		w = 1
	}
	return w
}

// SimWorkers composes the sweep's concurrency with a per-simulation
// Workers setting. An explicit setting passes through untouched; the
// "auto" setting (0, one shard per CPU) resolves to serial when the
// sweep itself runs points concurrently, so the host runs ~one goroutine
// per CPU overall instead of points×CPUs. Both layers are bit-identical
// across worker counts, so this only shapes wall-clock, never results.
func (c Config) SimWorkers(points, simWorkers int) int {
	if simWorkers == 0 && c.Workers(points) > 1 {
		return 1
	}
	return simWorkers
}

// Point is one sweep point's execution context.
type Point struct {
	// Index is the point's position in the sweep, dense in [0, points).
	Index int
	// Worker identifies the pool worker running the point, dense in
	// [0, Workers(points)) — the key for per-worker pooled resources
	// (e.g. core.SimPool), which at most one in-flight point holds.
	Worker int
	// RNG is the point's private random stream, derived serially from
	// Config.Seed. Draw sequences depend only on the point's own code
	// path, never on scheduling.
	RNG *rng.RNG
}

// Run executes fn for points 0..points-1 on the configured pool and
// returns the per-point results in index order. Every point runs even if
// an earlier one fails (points are independent; a sweep's cost is its
// longest point, not its first error); the returned error is the
// lowest-indexed failure, and the results are discarded with it.
func Run[T any](c Config, points int, fn func(Point) (T, error)) ([]T, error) {
	if points <= 0 {
		return nil, nil
	}
	// Derive every point's stream serially before any point runs: the
	// derivation order is the point order, regardless of which worker
	// later consumes which stream.
	root := rng.New(c.Seed)
	streams := make([]*rng.RNG, points)
	for i := range streams {
		streams[i] = root.Split()
	}
	out := make([]T, points)
	errs := make([]error, points)
	workers := c.Workers(points)
	if workers == 1 {
		// Serial inline: the caller's goroutine runs every point, in
		// order, with no pool machinery at all.
		for i := 0; i < points; i++ {
			out[i], errs[i] = fn(Point{Index: i, RNG: streams[i]})
		}
	} else {
		// Dynamic dispatch over a fixed pool: workers claim the next
		// unclaimed index, so a slow point never stalls the others and
		// the assignment of points to workers affects only wall-clock.
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 1; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				runWorker(w, &next, streams, out, errs, fn)
			}(w)
		}
		runWorker(0, &next, streams, out, errs, fn)
		wg.Wait()
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("sweep: point %d: %w", i, err)
		}
	}
	return out, nil
}

// runWorker drains points off the shared counter until none remain.
func runWorker[T any](w int, next *atomic.Int64, streams []*rng.RNG, out []T, errs []error, fn func(Point) (T, error)) {
	for {
		i := int(next.Add(1)) - 1
		if i >= len(streams) {
			return
		}
		out[i], errs[i] = fn(Point{Index: i, Worker: w, RNG: streams[i]})
	}
}
