package schedule

import (
	"testing"

	"repro/internal/matching"
)

// backingArrays counts the distinct backing arrays among a schedule's
// slots.
func backingArrays(s *matching.Schedule) int {
	arrays := map[*int]bool{}
	for _, m := range s.Slots {
		arrays[&m[0]] = true
	}
	return len(arrays)
}

// perSlotSORN is the construction BuildSORN used to run: the same streams
// and interleaving, with a freshly built matching for every slot.
func perSlotSORN(b *SORN) *matching.Schedule {
	cfg := b.Config
	k := cfg.N / cfg.Nc
	type stream struct {
		intra bool
		shift int
	}
	var streams []stream
	var weights []int
	for j := 1; j < k && b.WIntra > 0; j++ {
		streams = append(streams, stream{intra: true, shift: j})
		weights = append(weights, b.WIntra)
	}
	for c := 1; c < cfg.Nc && b.WInter > 0; c++ {
		streams = append(streams, stream{shift: c})
		weights = append(weights, b.WInter)
	}
	s := &matching.Schedule{N: cfg.N}
	for _, si := range interleave(weights) {
		if st := streams[si]; st.intra {
			s.Slots = append(s.Slots, intraMatching(b.Cliques, st.shift))
		} else {
			s.Slots = append(s.Slots, interMatching(b.Cliques, st.shift, 0))
		}
	}
	return s
}

// TestBuildSORNSharesStreamMatchings: a BuildSORN schedule holds exactly
// one backing array per circuit stream, (k−1) intra shifts plus (Nc−1)
// clique offsets, however often each stream repeats, and equals slot by
// slot the per-slot construction.
func TestBuildSORNSharesStreamMatchings(t *testing.T) {
	for _, cfg := range []SORNConfig{
		{N: 16, Nc: 4, Q: 2},
		{N: 24, Nc: 3, Q: 1.5},
		{N: 128, Nc: 8, Q: 4.5},
		{N: 512, Nc: 16, Q: 4.5},
	} {
		b, err := BuildSORN(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if b.WIntra < 1 || b.WInter < 1 {
			t.Fatalf("%+v: weights (%d, %d) leave a stream class empty", cfg, b.WIntra, b.WInter)
		}
		k := cfg.N / cfg.Nc
		if got, want := backingArrays(b.Schedule), (k-1)+(cfg.Nc-1); got != want {
			t.Errorf("%+v: %d backing arrays over %d slots, want one per stream (%d)",
				cfg, got, b.Schedule.Period(), want)
		}
		ref := perSlotSORN(b)
		if ref.Period() != b.Schedule.Period() {
			t.Fatalf("%+v: period %d, per-slot construction %d", cfg, b.Schedule.Period(), ref.Period())
		}
		for tt := range ref.Slots {
			if !b.Schedule.Slots[tt].Equal(ref.Slots[tt]) {
				t.Fatalf("%+v: slot %d differs from the per-slot construction", cfg, tt)
			}
		}
	}
}

// TestDemandAwareSharesStreamMatchings: the demand-aware builder also
// builds each stream's matching once: slots with equal matchings share
// one backing array.
func TestDemandAwareSharesStreamMatchings(t *testing.T) {
	demand := [][]float64{{0, 5, 1, 0}, {1, 0, 5, 1}, {0, 1, 0, 5}, {5, 0, 1, 0}}
	b, err := BuildSORNDemandAware(DemandAwareConfig{N: 32, Nc: 4, Q: 3, Demand: demand})
	if err != nil {
		t.Fatal(err)
	}
	slots := b.Schedule.Slots
	for i := range slots {
		for j := range i {
			if slots[i].Equal(slots[j]) && &slots[i][0] != &slots[j][0] {
				t.Fatalf("slots %d and %d hold equal matchings in different arrays", j, i)
			}
		}
	}
	if got := backingArrays(b.Schedule); got >= len(slots) {
		t.Fatalf("%d backing arrays for %d slots: no stream shares its matching", got, len(slots))
	}
}

// TestCloneIsDeep: Clone gives every slot its own array even where the
// built schedule shares one Matching across slots, so writing one slot
// of the clone changes nothing in the original and only that slot in
// the clone.
func TestCloneIsDeep(t *testing.T) {
	b, err := BuildSORN(SORNConfig{N: 16, Nc: 4, Q: 2})
	if err != nil {
		t.Fatal(err)
	}
	orig := b.Schedule
	before := perSlotSORN(b) // an unshared copy of the original's slots
	// Write a slot whose matching the original shares with another slot.
	shared := -1
	for i := range orig.Slots {
		for j := range i {
			if &orig.Slots[i][0] == &orig.Slots[j][0] {
				shared = i
			}
		}
	}
	if shared < 0 {
		t.Fatal("the built schedule shares no matching; the test needs one that does")
	}
	c := orig.Clone()
	if got := backingArrays(c); got != c.Period() {
		t.Fatalf("clone holds %d backing arrays for %d slots", got, c.Period())
	}
	c.Slots[shared][0], c.Slots[shared][1] = c.Slots[shared][1], c.Slots[shared][0]
	if !orig.Equal(before) {
		t.Fatal("writing the clone changed the original")
	}
	for i := range c.Slots {
		if same := c.Slots[i].Equal(before.Slots[i]); same == (i == shared) {
			t.Fatalf("slot %d: equal to the original = %v after writing slot %d", i, same, shared)
		}
	}
}
