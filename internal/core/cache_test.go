package core

import (
	"sync"
	"testing"

	"repro/internal/model"
)

func TestBuildCacheReturnsOneSharedBuild(t *testing.T) {
	c := NewBuildCache()
	a, err := c.SORNWithQ(64, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.SORNWithQ(64, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("same key built twice")
	}
	other, err := c.SORNWithQ(64, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if other == a {
		t.Fatal("different q shared an entry")
	}
}

func TestBuildCacheSORNMatchesNewSORN(t *testing.T) {
	// The cached SORN keys on the clamped q*, so two localities with the
	// same q* share a build, and the build equals the uncached one.
	c := NewBuildCache()
	cached, err := c.SORN(64, 8, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewSORN(64, 8, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Both sides are the same deterministic build; bit equality is the claim.
	if cached.SORN.RealizedQ != fresh.SORN.RealizedQ || cached.Schedule.Period() != fresh.Schedule.Period() {
		t.Fatalf("cached build differs: q %f vs %f, period %d vs %d",
			cached.SORN.RealizedQ, fresh.SORN.RealizedQ, cached.Schedule.Period(), fresh.Schedule.Period())
	}
	viaQ, err := c.SORNWithQ(64, 8, model.SORNQClamped(0.5, 16))
	if err != nil {
		t.Fatal(err)
	}
	if viaQ != cached {
		t.Fatal("SORN(x) and SORNWithQ(q*(x)) did not share an entry")
	}
}

func TestBuildCacheSingleflightUnderConcurrency(t *testing.T) {
	c := NewBuildCache()
	const goroutines = 8
	got := make([]*Network, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			nw, err := c.ORN1D(32)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = nw
		}(i)
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if got[i] != got[0] {
			t.Fatal("concurrent gets returned distinct builds")
		}
	}
}

func TestBuildCacheCachesErrors(t *testing.T) {
	c := NewBuildCache()
	_, err1 := c.SORNWithQ(64, 7, 4) // 7 does not divide 64
	_, err2 := c.SORNWithQ(64, 7, 4)
	if err1 == nil || err2 == nil {
		t.Fatal("impossible build did not error")
	}
	if err1.Error() != err2.Error() {
		t.Fatalf("error not cached consistently: %v vs %v", err1, err2)
	}
}

func TestSimPoolReusesAcrossAcquires(t *testing.T) {
	nw, err := SharedBuilds.SORN(32, 4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewSimPool(2)
	a, err := pool.Acquire(0, nw, SimOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := pool.Acquire(0, nw, SimOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("same worker, same N: pool did not reuse the Sim")
	}
	other, err := pool.Acquire(1, nw, SimOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if other == a {
		t.Fatal("workers must not share a pooled Sim")
	}
	// A different node count rebuilds the slot instead of resetting.
	flat, err := SharedBuilds.ORN1D(16)
	if err != nil {
		t.Fatal(err)
	}
	c, err := pool.Acquire(0, flat, SimOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("node-count change must allocate a new Sim")
	}
	if c.N() != 16 {
		t.Fatalf("rebuilt sim has %d nodes, want 16", c.N())
	}
}
