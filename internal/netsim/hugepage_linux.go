package netsim

import "syscall"

// madviseHuge marks b, a page-aligned range of the Go heap, for
// transparent huge pages. A kernel built without them refuses the
// advice, and the pool works the same either way, so the error is
// dropped.
func madviseHuge(b []byte) { _ = syscall.Madvise(b, syscall.MADV_HUGEPAGE) }
