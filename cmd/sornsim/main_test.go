package main

import (
	"bytes"
	"errors"
	"math"
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

// wantUsageError runs sornsim with args and fails the test unless the
// run is rejected as a usage error.
func wantUsageError(t *testing.T, args string) {
	t.Helper()
	var out bytes.Buffer
	err := run(strings.Fields(args), &out)
	var ue usageError
	if !errors.As(err, &ue) {
		t.Errorf("sornsim %s: got error %v, want a usage error; output:\n%s", args, err, out.String())
	}
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
		wantUsageError(t, args)
	}
}

// TestRejectsIgnoredAndBadFlags checks that a flag the selected mode does
// not read, a value the simulator would silently replace, and a spec
// with trailing junk are each a usage error rather than a run that
// quietly differs from what was asked.
func TestRejectsIgnoredAndBadFlags(t *testing.T) {
	const small = "-n 16 -nc 4 -slots 100 -workers 1 "
	for _, args := range []string{
		small + "-mode avail -planes 4",
		small + "-mode avail -propns 5000",
		small + "-mode avail -sizes fixed:99",
		small + "-mode avail -warmup 7",
		small + "-mode saturate -load 0.5",
		small + "-mode saturate -epoch 100",
		small + "-mode saturate -outage 10-20",
		small + "-mode saturate -qlimit 8",
		small + "-mode saturate -faultplan node3@10-20",
		small + "-mode openloop -slotns 0",
		small + "-mode openloop -slotns -100",
		small + "-mode openloop -sizes fixed:4junk",
		small + "-mode avail -outage 100-200xyz",
		small + "-mode avail -epoch 0",
		small + "-mode openloop -planes 0",
		small + "-mode openloop -metricsevery 0",
	} {
		wantUsageError(t, args)
	}
}

// TestSaturateHonorsZeroPropagation checks that saturate mode simulates
// the -propns it is given: 0 ns of propagation is a valid fabric, not a
// request for the 500 ns default.
func TestSaturateHonorsZeroPropagation(t *testing.T) {
	base := "-mode saturate -n 16 -nc 4 -warmup 200 -slots 400 -seed 3 -workers 1 -propns "
	if zero, def := sornsim(t, strings.Fields(base+"0")...), sornsim(t, strings.Fields(base+"500")...); zero == def {
		t.Fatalf("-propns 0 reports the same run as -propns 500:\n%s", zero)
	}
}

// FuzzSornsimFlags drives sornsim's three simulation modes on a 16-node
// fabric with fuzzed flags; an empty string leaves its flag unset. run
// must return an error or a report, never panic, and a report must hold
// no NaN, no infinity and no negative number (latency, FCT, throughput,
// counts). Inputs that would only be slow or memory-hungry, not wrong,
// are skipped: offered load above 1, more than 8 planes, a delay ring
// over 10^4 slots, fixed flows over 10^4 cells.
func FuzzSornsimFlags(f *testing.F) {
	f.Add("avail", "", "", "", "", "", "4", "", "", "", "", "", "", "", uint16(100), uint16(0))
	f.Add("avail", "", "", "", "", "5000", "", "", "", "", "", "", "", "", uint16(100), uint16(0))
	f.Add("avail", "fixed:99", "", "", "", "", "", "", "", "", "", "", "", "", uint16(100), uint16(0))
	f.Add("avail", "", "", "", "", "", "", "", "", "", "", "", "", "", uint16(100), uint16(7))
	f.Add("saturate", "", "", "", "", "", "", "", "", "", "", "", "", "0.5", uint16(100), uint16(50))
	f.Add("saturate", "", "", "", "", "", "", "100", "", "", "", "", "", "", uint16(100), uint16(50))
	f.Add("saturate", "", "10-20", "", "", "", "", "", "", "", "", "", "", "", uint16(100), uint16(50))
	f.Add("openloop", "", "", "", "0", "", "", "", "", "", "", "", "", "", uint16(100), uint16(50))
	f.Add("openloop", "", "", "", "-100", "", "", "", "", "", "", "", "", "", uint16(100), uint16(50))
	f.Add("openloop", "fixed:4junk", "", "", "", "", "", "", "", "", "", "", "", "", uint16(100), uint16(50))
	f.Add("avail", "", "100-200xyz", "", "", "", "", "", "", "", "", "", "", "", uint16(300), uint16(0))
	f.Add("avail", "", "", "", "", "", "", "0", "", "", "", "", "", "", uint16(100), uint16(0))
	f.Add("openloop", "", "", "", "", "", "0", "", "", "", "", "", "", "", uint16(100), uint16(50))
	f.Add("saturate", "", "", "", "", "0", "2", "", "", "0.3", "", "", "", "", uint16(200), uint16(100))
	f.Add("openloop", "fixed:4", "", "node3@50-150;churn@0-300,links=0.01,down=40", "", "", "", "", "", "", "", "8", "4", "0.9", uint16(300), uint16(100))
	f.Add("avail", "", "50-250", "node7@60-200", "", "", "", "20", "30", "0.6", "", "", "", "0.4", uint16(400), uint16(0))
	f.Add("openloop", "bimodal", "", "", "7", "333", "3", "", "", "1", "2.5", "40", "", "1", uint16(250), uint16(0))
	f.Fuzz(func(t *testing.T, mode, sizes, outage, faultplan, slotns, propns, planes, epoch, window, x, q, cap, qlimit, load string, slots, warmup uint16) {
		over := func(v string, limit float64) bool {
			if f, err := strconv.ParseFloat(v, 64); err == nil {
				return f > limit
			}
			i, err := strconv.ParseInt(v, 0, 64)
			return err == nil && float64(i) > limit
		}
		cells, _ := strings.CutPrefix(sizes, "fixed:")
		slotNS := slotns
		if slotNS == "" {
			slotNS = "100"
		}
		if ns, err := strconv.ParseInt(slotNS, 0, 64); over(load, 1) || over(planes, 8) || over(cells, 1e4) ||
			(err == nil && ns > 0 && over(propns, 1e4*float64(ns))) {
			t.Skip("expensive, not malformed")
		}
		args := []string{"-n", "16", "-nc", "4", "-workers", "1",
			"-slots", strconv.Itoa(int(slots % 401))}
		if mode != "avail" || warmup != 0 {
			args = append(args, "-warmup", strconv.Itoa(int(warmup%401)))
		}
		for _, fl := range []struct{ name, v string }{
			{"mode", mode}, {"sizes", sizes}, {"outage", outage}, {"faultplan", faultplan},
			{"slotns", slotns}, {"propns", propns}, {"planes", planes}, {"epoch", epoch},
			{"window", window}, {"x", x}, {"q", q}, {"cap", cap}, {"qlimit", qlimit}, {"load", load},
		} {
			if fl.v != "" {
				args = append(args, "-"+fl.name+"="+fl.v)
			}
		}
		var out bytes.Buffer
		if err := run(args, &out); err != nil {
			return
		}
		for _, tok := range strings.Fields(out.String()) {
			if v, err := strconv.ParseFloat(tok, 64); err == nil && (math.IsNaN(v) || math.IsInf(v, 0) || v < 0) {
				t.Fatalf("sornsim %s printed %s:\n%s", strings.Join(args, " "), tok, out.Bytes())
			}
		}
	})
}
