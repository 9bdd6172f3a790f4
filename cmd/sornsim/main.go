// Command sornsim is the general driver for the packet-level simulator:
// pick a design (sorn, orn1d, orn2d), a workload (locality ratio, flow
// size distribution), and a mode (saturate, openloop, or avail), and get
// throughput, hop, and latency statistics.
//
// Examples:
//
//	sornsim -design sorn -n 128 -nc 8 -x 0.56 -mode saturate
//	sornsim -design orn1d -n 128 -mode openloop -load 0.3 -sizes websearch
//	sornsim -design orn2d -n 64 -mode openloop -load 0.2
//	sornsim -mode openloop -faultplan 'node7@5000-15000;churn@0-30000,links=0.001,down=300'
//	sornsim -mode avail -n 64 -nc 8 -slots 40000 -faultplan 'node7@8000-20000' -outage 8000-24000
//	sornsim -selfcheck -fuzziters 64 -fuzzseconds 120 -seed 3
//	sornsim -selfcheck -spec 'design=sorn n=24 nc=4 q=0 x=0.56 tm=locality tmparam=0.56 planes=2 warmup=800 measure=3200 seed=12648431'
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof" // -pprof serves the default mux
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faultplan"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/stats"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "sornsim:", err)
		var ue usageError
		if errors.As(err, &ue) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// usageError is a bad command line; main exits 2 for it, as for a flag
// the parser rejects, and 1 for every other error.
type usageError struct{ error }

func (e usageError) Unwrap() error { return e.error }

func usagef(format string, a ...any) error { return usageError{fmt.Errorf(format, a...)} }

// run parses args, runs the selected simulation and writes its report to
// stdout, also when the run fails partway; -trace/-metrics captures and
// the phase report go to stderr.
func run(args []string, stdout io.Writer) error {
	var out strings.Builder
	err := simulate(args, &out)
	if _, werr := io.WriteString(stdout, out.String()); err == nil {
		err = werr
	}
	return err
}

// Flags each mode reads, beyond -seed and -selfcheck, which every mode
// reads; -selfcheck counts as a mode. Setting a flag the selected mode
// does not read is a usage error, not a silently ignored option.
var (
	runFlags    = []string{"mode", "n", "nc", "x", "slots", "trace", "metrics", "metricsevery", "pprof"}
	packetFlags = []string{"design", "q", "sizes", "cap", "hist", "warmup", "slotns", "propns", "planes"}
	modeFlags   = map[string][]string{
		"saturate":  slices.Concat(runFlags, packetFlags, []string{"backlog"}),
		"openloop":  slices.Concat(runFlags, packetFlags, []string{"load", "qlimit", "faultplan"}),
		"avail":     slices.Concat(runFlags, []string{"load", "faultplan", "epoch", "outage", "window", "sweepworkers"}),
		"selfcheck": {"spec", "fuzziters", "fuzzseconds"},
	}
)

// simulate is run's body, reporting into out.
func simulate(args []string, out *strings.Builder) error {
	fs := flag.NewFlagSet("sornsim", flag.ContinueOnError)
	design := fs.String("design", "sorn", "sorn, orn1d, or orn2d")
	n := fs.Int("n", 128, "number of nodes")
	nc := fs.Int("nc", 8, "cliques (sorn only)")
	x := fs.Float64("x", 0.56, "traffic locality ratio; also provisions the sorn schedule")
	q := fs.Float64("q", 0, "explicit oversubscription ratio, must be positive (0 = derive q* from -x)")
	mode := fs.String("mode", "saturate", "saturate, openloop, or avail")
	load := fs.Float64("load", 0.3, "offered load for openloop and avail modes (fraction of node bandwidth)")
	sizes := fs.String("sizes", "websearch", "flow sizes: websearch, datamining, fixed:<cells>, bimodal")
	cap := fs.Int("cap", 0, "optional flow size cap in cells (0 = uncapped)")
	slots := fs.Int64("slots", 30000, "openloop and avail run length / saturate measurement slots")
	warmup := fs.Int64("warmup", 15000, "slots run before stats are measured (saturate and openloop modes)")
	backlog := fs.Int64("backlog", 4096, "fresh-cell target per node in saturate mode")
	seed := fs.Uint64("seed", 1, "rng seed")
	slotNS := fs.Int64("slotns", 100, "slot duration (ns)")
	propNS := fs.Int64("propns", 500, "per-hop propagation (ns)")
	planes := fs.Int("planes", 1, "parallel uplinks per node")
	qlimit := fs.Int("qlimit", 0, "per-VOQ queue limit in cells for openloop mode (0 = unbounded)")
	sweepWorkers := fs.Int("sweepworkers", 0, "concurrent sweep points in avail mode (0 = one per CPU, 1 = serial; results identical)")
	hist := fs.Bool("hist", false, "print a log2 histogram of cell latencies")
	tracePath := fs.String("trace", "", "write the event trace (flow/failure/reconfig) as JSONL to this file")
	metricsPath := fs.String("metrics", "", "write the slot-resolved metric time series as CSV to this file")
	metricsEvery := fs.Int64("metricsevery", 64, "series snapshot cadence in slots")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	faultSpec := fs.String("faultplan", "",
		"fault-plan spec 'node<u>@s[-e]; link<u>:<v>@s[-e]; churn@s-e[,links=p][,nodes=p][,down=d]', applied between steps (openloop and avail modes)")
	epochSlots := fs.Int64("epoch", 500, "control-loop cadence in slots (avail mode)")
	outage := fs.String("outage", "", "telemetry outage window 'start-end' in slots (avail mode)")
	window := fs.Int64("window", 0, "reporting window in slots for avail mode (0 = slots/50)")
	selfcheck := fs.Bool("selfcheck", false, "run the differential oracle instead of a simulation")
	spec := fs.String("spec", "", "selfcheck: replay one scenario from its printed spec line")
	fuzzIters := fs.Int("fuzziters", 64, "selfcheck: random scenarios to fuzz when -spec is empty")
	fuzzSeconds := fs.Int("fuzzseconds", 0, "selfcheck: wall-clock budget in seconds (0 = iteration count only)")
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	selected := *mode
	if *selfcheck {
		selected = "selfcheck"
	} else if selected == "selfcheck" || modeFlags[selected] == nil {
		return usagef("unknown mode %q", *mode)
	}
	var ignored []string
	fs.Visit(func(f *flag.Flag) {
		if f.Name != "seed" && f.Name != "selfcheck" && !slices.Contains(modeFlags[selected], f.Name) {
			ignored = append(ignored, "-"+f.Name)
		}
	})
	if len(ignored) > 0 {
		return usagef("%s mode does not read %s", selected, strings.Join(ignored, ", "))
	}
	if *selfcheck {
		return runSelfcheck(out, *spec, *seed, *fuzzIters, *fuzzSeconds)
	}
	for _, f := range []struct {
		name   string
		v, min int64
	}{
		{"cap", int64(*cap), 0}, {"qlimit", int64(*qlimit), 0}, {"warmup", *warmup, 0},
		{"slots", *slots, 1}, {"slotns", *slotNS, 1}, {"planes", int64(*planes), 1},
		{"epoch", *epochSlots, 1}, {"metricsevery", *metricsEvery, 1},
	} {
		if f.v < f.min {
			return usagef("bad -%s %d (want at least %d)", f.name, f.v, f.min)
		}
	}

	if *pprofAddr != "" {
		go func() {
			// Diagnostics endpoint; a bind failure shouldn't kill the run.
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "sornsim: pprof:", err)
			}
		}()
	}
	var ob *obs.Observer
	if *tracePath != "" || *metricsPath != "" {
		// Flow lifecycle events are only worth their cost when the
		// trace is actually being written.
		ob = obs.New(obs.Options{MetricsEvery: *metricsEvery, TraceFlows: *tracePath != ""})
	}

	var (
		nw  *core.Network
		err error
	)
	switch *design {
	case "sorn":
		//sornlint:ignore floateq -- 0 is the exact "derive q* from -x" sentinel; SORNConfig.Weights rejects any other bad q
		if *q != 0 {
			nw, err = core.NewSORNWithQ(*n, *nc, *q)
		} else {
			nw, err = core.NewSORN(*n, *nc, *x)
		}
	case "orn1d":
		nw, err = core.NewORN1D(*n)
	case "orn2d":
		nw, err = core.NewORN(*n, 2)
	default:
		return usagef("unknown design %q", *design)
	}
	if err != nil {
		return err
	}

	var dist workload.SizeDist
	switch *sizes {
	case "websearch":
		dist = workload.WebSearch()
	case "datamining":
		dist = workload.DataMining()
	case "bimodal":
		dist = workload.Bimodal{ShortCells: 10, BulkCells: 1000, ShortShare: 0.75}
	default:
		c, ok := strings.CutPrefix(*sizes, "fixed:")
		cells, cerr := strconv.Atoi(c)
		if !ok || cerr != nil || cells < 1 {
			return usagef("bad -sizes %q", *sizes)
		}
		dist = workload.FixedSize(cells)
	}
	if *cap > 0 {
		dist = workload.NewCapped(dist, *cap)
	}

	tm, err := nw.LocalityMatrix(*x)
	if err != nil {
		return err
	}
	var plan *faultplan.Plan
	if selected != "saturate" {
		if plan, err = faultplan.ParseSpec(*faultSpec, *n, *seed); err != nil {
			return err
		}
	}
	var sim *netsim.Sim
	if selected != "avail" {
		sim, err = netsim.New(netsim.Config{
			Schedule: nw.Schedule, Router: nw.Router,
			SlotNS: *slotNS, PropNS: *propNS, Seed: *seed,
			LatencySampleEvery: 16, Planes: *planes, QueueLimit: *qlimit,
			Obs: ob,
		})
		if err != nil {
			return err
		}
	}

	var st *netsim.Stats
	switch selected {
	case "saturate":
		st, err = sim.RunSaturated(netsim.SaturationConfig{
			TM: tm, Size: dist, TargetBacklog: *backlog, WarmupSlots: *warmup, MeasureSlots: *slots,
		})
	case "openloop":
		gen, gerr := workload.NewPoissonFlows(tm, dist, *load, *seed+1)
		if gerr != nil {
			return gerr
		}
		// Flows arrive from slot 0; stats count only from slot *warmup
		// on. Segments end at the warmup boundary and at each fault
		// event, which applies before its slot's arrivals.
		total := *warmup + *slots
		flows := gen.Window(0, total)
		drv := faultplan.NewDriver(plan)
		for t := int64(0); t < total; {
			if t == *warmup {
				sim.StartMeasuring()
			}
			drv.Advance(sim, t)
			end := total
			if t < *warmup {
				end = *warmup
			}
			if ev, ok := drv.NextSlot(); ok && ev < end {
				end = ev
			}
			if flows, err = sim.RunOpenLoop(flows, end); err != nil {
				return err
			}
			t = end
		}
		st = sim.Stats()
	case "avail":
		var oStart, oEnd int64
		if *outage != "" {
			s, e, ok := strings.Cut(*outage, "-")
			var serr, eerr error
			oStart, serr = strconv.ParseInt(s, 10, 64)
			oEnd, eerr = strconv.ParseInt(e, 10, 64)
			if !ok || serr != nil || eerr != nil || oEnd < oStart {
				return usagef("bad -outage %q (want start-end in slots)", *outage)
			}
		}
		res, aerr := experiments.Availability(experiments.AvailabilityConfig{
			N: *n, Nc: *nc, X: *x, Load: *load,
			Slots: *slots, Window: *window, EpochSlots: *epochSlots,
			OutageStart: oStart, OutageEnd: oEnd,
			Plan: plan, Seed: *seed, SweepWorkers: *sweepWorkers, Obs: ob,
		})
		if aerr != nil {
			return aerr
		}
		printAvailability(out, res, *n, *nc, *x, *load)
	}
	if err != nil {
		return err
	}

	if st != nil {
		slotUS := float64(*slotNS) / 1000
		fmt.Fprintf(out, "design=%s n=%d workload=%s mode=%s\n", nw.Kind, *n, dist.Name(), *mode)
		if nw.SORN != nil {
			fmt.Fprintf(out, "cliques=%d realized q=%.2f schedule period=%d slots\n",
				nw.SORN.Cliques.NumCliques(), nw.SORN.RealizedQ, nw.Schedule.Period())
		}
		fmt.Fprintf(out, "throughput r        %.4f cells/node/slot\n", st.Throughput(*n))
		fmt.Fprintf(out, "mean hops           %.3f\n", st.MeanHops())
		fmt.Fprintf(out, "delivered cells     %d\n", st.DeliveredCells)
		if st.LostCells > 0 {
			fmt.Fprintf(out, "lost cells          %d (failures)\n", st.LostCells)
		}
		if st.DroppedCells > 0 {
			fmt.Fprintf(out, "dropped cells       %d (queue limit)\n", st.DroppedCells)
		}
		fmt.Fprintf(out, "completed flows     %d\n", st.CompletedFlows)
		if st.LatencySlots.Count() > 0 {
			fmt.Fprintf(out, "cell latency p50    %.1f µs\n", st.LatencySlots.Percentile(50)*slotUS)
			fmt.Fprintf(out, "cell latency p99    %.1f µs\n", st.LatencySlots.Percentile(99)*slotUS)
		}
		for h := 1; h < len(st.LatencyByHops); h++ {
			cls := &st.LatencyByHops[h]
			if cls.Count() == 0 {
				continue
			}
			fmt.Fprintf(out, "  %d-hop cells p50   %.1f µs (%d samples)\n",
				h, cls.Percentile(50)*slotUS, cls.Count())
		}
		if st.FCTSlots.Count() > 0 {
			fmt.Fprintf(out, "FCT p50             %.1f µs\n", st.FCTSlots.Percentile(50)*slotUS)
			fmt.Fprintf(out, "FCT p99             %.1f µs\n", st.FCTSlots.Percentile(99)*slotUS)
		}
		if *hist && st.LatencySlots.Count() > 0 {
			h := stats.NewLogHistogram()
			for p := 0.5; p <= 100; p += 0.5 {
				h.Add(st.LatencySlots.Percentile(p))
			}
			fmt.Fprintln(out, "cell latency histogram (log2 buckets of slots, from percentile samples):")
			bounds, counts := h.Buckets()
			for i, b := range bounds {
				fmt.Fprintf(out, "  >= %6.0f slots  %s\n", b, strings.Repeat("#", int(counts[i])))
			}
		}
	}

	if ob != nil {
		if err := obs.WriteFiles(ob, *tracePath, *metricsPath, os.Stderr); err != nil {
			return err
		}
		if err := ob.WritePhaseReport(os.Stderr); err != nil {
			return err
		}
	}
	return nil
}

// printAvailability renders the two availability time series side by
// side — per-window throughput, end-of-window backlog, and losses for
// the resilient SORN run (with its degraded-mode marker) against the
// static oblivious baseline — then the degradation lifecycle verdict.
func printAvailability(out *strings.Builder, res *experiments.AvailabilityResult, n, nc int, x, load float64) {
	fmt.Fprintf(out, "availability: n=%d nc=%d x=%.2f load=%.2f — SORN+fallback vs static oblivious\n",
		n, nc, x, load)
	fmt.Fprintf(out, "%10s  %8s %8s %6s %4s   %8s %8s %6s\n",
		"slot", "r", "backlog", "lost", "mode", "r", "backlog", "lost")
	for i, w := range res.SORN {
		mode := "ok"
		if w.Degraded {
			mode = "DEGR"
		}
		o := res.Oblivious[i]
		fmt.Fprintf(out, "%10d  %8.4f %8d %6d %4s   %8.4f %8d %6d\n",
			w.Slot, w.Throughput, w.Backlog, w.Lost+w.Dropped, mode,
			o.Throughput, o.Backlog, o.Lost+o.Dropped)
	}
	fmt.Fprintf(out, "fell back: %v   recovered: %v\n", res.FellBack, res.Recovered)
	fmt.Fprintf(out, "delivered cells     sorn=%d oblivious=%d\n",
		res.SORNStats.DeliveredCells, res.ObliviousStats.DeliveredCells)
	fmt.Fprintf(out, "lost cells          sorn=%d oblivious=%d\n",
		res.SORNStats.LostCells, res.ObliviousStats.LostCells)
}

// runSelfcheck is the differential-oracle entry point (-selfcheck):
// with -spec it replays exactly one scenario from its printed spec
// line; otherwise it fuzzes random scenarios until -fuzziters have run
// or the -fuzzseconds wall-clock budget elapses, whichever comes
// first. Returns an error on any unsuppressed violation or scenario
// error, after printing a one-line reproducer spec for each.
func runSelfcheck(out *strings.Builder, specLine string, seed uint64, iters, seconds int) error {
	if specLine != "" {
		sp, err := oracle.ParseSpec(specLine)
		if err != nil {
			return err
		}
		rep, err := oracle.Run(sp)
		if err != nil {
			return err
		}
		out.WriteString(rep.String())
		if len(rep.Failed()) > 0 {
			return errors.New("selfcheck: scenario failed")
		}
		fmt.Fprintf(out, "selfcheck ok: %s\n", sp.String())
		return nil
	}
	// The deadline lives here, not in internal/oracle: internal
	// packages stay deterministic (no wall-clock), the CLI owns time.
	var stop func() bool
	if seconds > 0 {
		deadline := time.Now().Add(time.Duration(seconds) * time.Second)
		stop = func() bool { return time.Now().After(deadline) }
	}
	res := oracle.Fuzz(seed, iters, stop)
	for _, e := range res.Errors {
		fmt.Fprintln(os.Stderr, "ERROR", e)
	}
	for _, r := range res.Reports {
		out.WriteString(r.String())
	}
	fmt.Fprintf(out, "selfcheck: %d scenarios, %d with findings, %d errors\n",
		res.Iterations, len(res.Reports), len(res.Errors))
	if res.Failed() {
		return errors.New("selfcheck: fuzzing found failures")
	}
	return nil
}
