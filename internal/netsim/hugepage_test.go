package netsim

import "testing"

func TestHugeInterior(t *testing.T) {
	const mib = 1 << 20
	const page = hugePageBytes
	cases := []struct {
		name   string
		base   uintptr
		n      int
		lo, hi int
	}{
		{"under the threshold", 8 * page, hugeAdviseMin - 16, 0, 0},
		{"empty", 8 * page, 0, 0, 0},
		{"aligned, exactly the threshold", 8 * page, 4 * mib, 0, 4 * mib},
		{"aligned, exact multiple", 8 * page, 6 * mib, 0, 6 * mib},
		{"aligned, ragged end", 8 * page, 6*mib + 48, 0, 6 * mib},
		{"unaligned base, one whole page", 5*page + 16, 4 * mib, page - 16, 2*page - 16},
		{"base just below a boundary", 3*page - 16, 4 * mib, 16, page + 16},
		{"unaligned base and end", 7*page + 4096, 9*mib + 100, page - 4096, 4*page - 4096},
	}
	for _, tc := range cases {
		lo, hi := hugeInterior(tc.base, tc.n)
		if lo != tc.lo || hi != tc.hi {
			t.Errorf("%s: hugeInterior(%#x, %d) = [%d, %d), want [%d, %d)", tc.name, tc.base, tc.n, lo, hi, tc.lo, tc.hi)
		}
	}
	// Every advised range stays inside its array, starts and ends on a
	// page boundary, and leaves less than a page unadvised at each end.
	for _, base := range []uintptr{0, 16, page - 16, page, 3*page + 4096, 1<<40 + 48} {
		for _, n := range []int{hugeAdviseMin - 1, hugeAdviseMin, hugeAdviseMin + 16, 3 * page, 5*page - 16, 64 * mib} {
			lo, hi := hugeInterior(base, n)
			if n < hugeAdviseMin {
				if lo != 0 || hi != 0 {
					t.Errorf("hugeInterior(%#x, %d) = [%d, %d) under the threshold", base, n, lo, hi)
				}
				continue
			}
			switch {
			case lo < 0 || lo >= hi || hi > n:
				t.Errorf("hugeInterior(%#x, %d) = [%d, %d) leaves the array or is empty", base, n, lo, hi)
			case (base+uintptr(lo))%page != 0 || (base+uintptr(hi))%page != 0:
				t.Errorf("hugeInterior(%#x, %d) = [%d, %d) is not page-aligned", base, n, lo, hi)
			case lo >= page || n-hi >= page:
				t.Errorf("hugeInterior(%#x, %d) = [%d, %d) skips a whole page", base, n, lo, hi)
			}
		}
	}
}
