package matching

import "testing"

// decodeSchedule builds a Schedule from fuzz bytes: N is n itself, and
// rows is a sequence of slots, each a length byte followed by that many
// entry bytes read as signed (so negative and out-of-range circuits
// occur). A short tail truncates the last slot, so row lengths that
// disagree with N are as easy to reach as well-formed ones.
func decodeSchedule(n int8, rows []byte) *Schedule {
	s := &Schedule{N: int(n)}
	for len(rows) > 0 {
		l := int(rows[0])
		rows = rows[1:]
		if l > len(rows) {
			l = len(rows)
		}
		m := make(Matching, l)
		for i, b := range rows[:l] {
			m[i] = int(int8(b))
		}
		rows = rows[l:]
		s.Slots = append(s.Slots, m)
	}
	return s
}

// encodeSchedule is decodeSchedule's inverse for the seed corpus.
func encodeSchedule(s *Schedule) []byte {
	var out []byte
	for _, m := range s.Slots {
		out = append(out, byte(len(m)))
		for _, d := range m {
			out = append(out, byte(int8(d)))
		}
	}
	return out
}

// FuzzScheduleValidate: Validate never panics, and every schedule it
// accepts has at least one slot, N ≥ 2, and rows that are fixed-point-free
// permutations of [0, N) — the invariant the simulator's direct-mapped
// delay ring and the routers rely on.
func FuzzScheduleValidate(f *testing.F) {
	for _, s := range []*Schedule{
		{N: 4, Slots: []Matching{CyclicShift(4, 1), CyclicShift(4, 2), CyclicShift(4, 3)}},
		{N: 2, Slots: []Matching{{1, 0}}},
		{N: 3, Slots: []Matching{{1, 2, 0}, {0, 2, 1}}},      // fixed point
		{N: 3, Slots: []Matching{{1, 1, 0}}},                 // repeated destination
		{N: 3, Slots: []Matching{{1, 2, 3}}},                 // out of range
		{N: 3, Slots: []Matching{{-1, 2, 0}}},                // negative
		{N: 4, Slots: []Matching{CyclicShift(4, 1), {1, 0}}}, // short row
		{N: 1, Slots: []Matching{{0}}},
		{N: 5},
	} {
		f.Add(int8(s.N), encodeSchedule(s))
	}
	f.Add(int8(-3), []byte{2, 1, 0})
	f.Fuzz(func(t *testing.T, n int8, rows []byte) {
		s := decodeSchedule(n, rows)
		if s.Validate() != nil {
			return
		}
		if s.N < 2 || len(s.Slots) == 0 {
			t.Fatalf("accepted N=%d with %d slots", s.N, len(s.Slots))
		}
		for slot, m := range s.Slots {
			if len(m) != s.N {
				t.Fatalf("slot %d: accepted %d entries for N=%d", slot, len(m), s.N)
			}
			seen := make([]bool, s.N)
			for u, v := range m {
				if v < 0 || v >= s.N || v == u || seen[v] {
					t.Fatalf("slot %d: accepted %v, not a fixed-point-free permutation", slot, m)
				}
				seen[v] = true
			}
		}
	})
}
