package netsim

import (
	"bufio"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// TestGrowAdvisesHugePages grows a pool past hugeAdviseMin and finds the
// huge-page advice ("hg") in the VmFlags of the mapping that holds the
// array's aligned interior. The kernel records the advice whether or
// not it grants huge pages, so the test does not depend on the host's
// THP mode or free memory.
func TestGrowAdvisesHugePages(t *testing.T) {
	if _, err := os.Stat("/sys/kernel/mm/transparent_hugepage/enabled"); err != nil {
		t.Skip("kernel without transparent huge pages")
	}
	var p cellPool
	for len(p.cells)*cellBytes < hugeAdviseMin {
		p.grow()
	}
	base := uintptr(unsafe.Pointer(&p.cells[0]))
	lo, hi := hugeInterior(base, len(p.cells)*cellBytes)
	if lo >= hi {
		t.Fatalf("a %d-cell array has no aligned interior", len(p.cells))
	}
	for _, at := range []uintptr{base + uintptr(lo), base + uintptr(hi) - 1} {
		flags := vmFlagsAt(t, at)
		if !slices.Contains(flags, "hg") {
			t.Errorf("mapping holding %#x has VmFlags %v, want hg", at, flags)
		}
	}
	runtime.KeepAlive(p.cells)
}

// vmFlagsAt returns the VmFlags of the /proc/self/smaps mapping that
// holds addr.
func vmFlagsAt(t *testing.T, addr uintptr) []string {
	t.Helper()
	f, err := os.Open("/proc/self/smaps")
	if err != nil {
		t.Skipf("no smaps: %v", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	holds := false
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		if from, to, ok := strings.Cut(fields[0], "-"); ok && !strings.HasSuffix(fields[0], ":") {
			lo, err1 := strconv.ParseUint(from, 16, 64)
			hi, err2 := strconv.ParseUint(to, 16, 64)
			if err1 == nil && err2 == nil {
				holds = uint64(addr) >= lo && uint64(addr) < hi
				continue
			}
		}
		if holds && fields[0] == "VmFlags:" {
			return fields[1:]
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	t.Fatalf("no mapping in /proc/self/smaps holds %#x", addr)
	return nil
}
