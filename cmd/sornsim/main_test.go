package main

import (
	"bytes"
	"errors"
	"strconv"
	"strings"
	"testing"
)

// sornsim runs the command with args and returns its stdout.
func sornsim(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("sornsim %s: %v", strings.Join(args, " "), err)
	}
	return out.String()
}

// delivered returns the report's delivered cell count.
func delivered(t *testing.T, report string) int {
	t.Helper()
	for _, line := range strings.Split(report, "\n") {
		if rest, ok := strings.CutPrefix(line, "delivered cells"); ok {
			v, err := strconv.Atoi(strings.TrimSpace(rest))
			if err != nil {
				t.Fatal(err)
			}
			return v
		}
	}
	t.Fatalf("no delivered cells line in:\n%s", report)
	return 0
}

// TestOpenLoopWarmup checks that openloop mode measures only the slots
// after -warmup: a run split 1500+1500 reports different stats, and
// fewer delivered cells, than 0+3000 over the same arrivals. The
// fault-plan slot loop (here with a fault after the run ends) must
// measure the same window as the plain loop, also at a load low enough
// that the fabric drains and fast-forwards across the warmup boundary.
func TestOpenLoopWarmup(t *testing.T) {
	base := strings.Fields("-mode openloop -n 16 -nc 4 -sizes fixed:4 -seed 3 -workers 1")
	with := func(extra string) []string { return append(append([]string(nil), base...), strings.Fields(extra)...) }

	full := sornsim(t, with("-load 0.3 -warmup 0 -slots 3000")...)
	split := sornsim(t, with("-load 0.3 -warmup 1500 -slots 1500")...)
	if full == split {
		t.Fatalf("-warmup 1500 -slots 1500 reports the same stats as -warmup 0 -slots 3000:\n%s", full)
	}
	if a, b := delivered(t, full), delivered(t, split); a <= b {
		t.Errorf("warmup not excluded: %d cells delivered over 3000 slots, %d over the last 1500", a, b)
	}

	for _, load := range []string{"0.3", "0.005"} {
		args := "-load " + load + " -warmup 1000 -slots 2000"
		plain := sornsim(t, with(args)...)
		faulted := sornsim(t, with(args+" -faultplan node3@90000-90001")...)
		if plain != faulted {
			t.Errorf("load %s: fault-plan loop measures a different window:\n%s\nplain loop:\n%s", load, faulted, plain)
		}
	}
}

// TestBadRunLength checks that openloop mode rejects a negative warmup
// and a run shorter than one slot instead of printing a truncated or
// all-zero run.
func TestBadRunLength(t *testing.T) {
	for _, args := range []string{
		"-mode openloop -n 16 -nc 4 -warmup -5 -slots 100",
		"-mode openloop -n 16 -nc 4 -warmup 0 -slots 0",
		"-mode openloop -n 16 -nc 4 -warmup 10 -slots -3",
	} {
		var out bytes.Buffer
		err := run(strings.Fields(args), &out)
		var ue usageError
		if !errors.As(err, &ue) {
			t.Errorf("sornsim %s: got error %v, want a usage error; output:\n%s", args, err, out.String())
		}
	}
}
