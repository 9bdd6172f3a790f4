package netsim

import "unsafe"

// A saturated run keeps tens of megabytes of cells in its pools and
// touches them at random, far more than the second-level TLB maps with
// 4 KiB pages. Where the kernel leaves transparent huge pages to
// madvise, the Go heap never gets them unasked, so cellPool.grow asks
// for them on each large cell array it allocates. The array stays an
// ordinary Go slice; the advice is a hint the kernel may ignore, and it
// never changes what the pool holds.
const (
	hugePageBytes = 2 << 20 // transparent huge page size on x86-64 and arm64
	hugeAdviseMin = 4 << 20 // smallest cell array worth advising
)

// hugeInterior returns the byte offsets [lo, hi) of the whole
// hugePageBytes-aligned pages inside the n-byte array at address base,
// or lo == hi == 0 when the array is under hugeAdviseMin. An array of
// two huge pages or more always holds one whole page, and the range
// never leaves the array: 0 ≤ lo < hi ≤ n.
func hugeInterior(base uintptr, n int) (lo, hi int) {
	if n < hugeAdviseMin {
		return 0, 0
	}
	start := (base + hugePageBytes - 1) &^ (hugePageBytes - 1)
	end := (base + uintptr(n)) &^ (hugePageBytes - 1)
	return int(start - base), int(end - base)
}

// adviseHugePages asks for huge pages on the aligned interior of cells,
// a non-empty array.
func adviseHugePages(cells []cell) {
	base := unsafe.Pointer(&cells[0])
	lo, hi := hugeInterior(uintptr(base), len(cells)*cellBytes)
	if lo < hi {
		madviseHuge(unsafe.Slice((*byte)(unsafe.Add(base, lo)), hi-lo))
	}
}
