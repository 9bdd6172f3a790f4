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
//	sornsim -selfcheck -spec 'design=sorn n=24 nc=4 q=0 x=0.56 tm=locality tmparam=0.56 planes=2 workers=4 warmup=800 measure=3200 seed=12648431'
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // -pprof serves the default mux
	"os"
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
	design := flag.String("design", "sorn", "sorn, orn1d, or orn2d")
	n := flag.Int("n", 128, "number of nodes")
	nc := flag.Int("nc", 8, "cliques (sorn only)")
	x := flag.Float64("x", 0.56, "traffic locality ratio; also provisions the sorn schedule")
	q := flag.Float64("q", 0, "explicit oversubscription ratio, must be positive (0 = derive q* from -x)")
	mode := flag.String("mode", "saturate", "saturate, openloop, or avail")
	load := flag.Float64("load", 0.3, "offered load for openloop mode (fraction of node bandwidth)")
	sizes := flag.String("sizes", "websearch", "flow sizes: websearch, datamining, fixed:<cells>, bimodal")
	cap := flag.Int("cap", 0, "optional flow size cap in cells (0 = uncapped)")
	slots := flag.Int64("slots", 30000, "openloop run length / saturate measurement slots")
	warmup := flag.Int64("warmup", 15000, "warmup slots")
	backlog := flag.Int64("backlog", 4096, "fresh-cell target per node in saturate mode")
	seed := flag.Uint64("seed", 1, "rng seed")
	slotNS := flag.Int64("slotns", 100, "slot duration (ns)")
	propNS := flag.Int64("propns", 500, "per-hop propagation (ns)")
	planes := flag.Int("planes", 1, "parallel uplinks per node")
	qlimit := flag.Int("qlimit", 0, "per-VOQ queue limit in cells (0 = unbounded)")
	workers := flag.Int("workers", 0, "step-shard goroutines (0 = one per CPU, 1 = serial; results identical)")
	sweepWorkers := flag.Int("sweepworkers", 0, "concurrent sweep points in avail mode (0 = one per CPU, 1 = serial; results identical)")
	hist := flag.Bool("hist", false, "print a log2 histogram of cell latencies")
	tracePath := flag.String("trace", "", "write the event trace (flow/failure/reconfig) as JSONL to this file")
	metricsPath := flag.String("metrics", "", "write the slot-resolved metric time series as CSV to this file")
	metricsEvery := flag.Int64("metricsevery", 64, "series snapshot cadence in slots")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	faultSpec := flag.String("faultplan", "",
		"fault-plan spec 'node<u>@s[-e]; link<u>:<v>@s[-e]; churn@s-e[,links=p][,nodes=p][,down=d]', applied between steps (openloop and avail modes)")
	epochSlots := flag.Int64("epoch", 500, "control-loop cadence in slots (avail mode)")
	outage := flag.String("outage", "", "telemetry outage window 'start-end' in slots (avail mode)")
	window := flag.Int64("window", 0, "reporting window in slots for avail mode (0 = slots/50)")
	selfcheck := flag.Bool("selfcheck", false, "run the differential oracle instead of a simulation")
	spec := flag.String("spec", "", "selfcheck: replay one scenario from its printed spec line")
	fuzzIters := flag.Int("fuzziters", 64, "selfcheck: random scenarios to fuzz when -spec is empty")
	fuzzSeconds := flag.Int("fuzzseconds", 0, "selfcheck: wall-clock budget in seconds (0 = iteration count only)")
	flag.Parse()
	if *cap < 0 {
		fmt.Fprintf(os.Stderr, "sornsim: bad -cap %d (want 0 = uncapped, or a positive cell count)\n", *cap)
		os.Exit(2)
	}
	if *qlimit < 0 {
		fmt.Fprintf(os.Stderr, "sornsim: bad -qlimit %d (want 0 = unbounded, or a positive cell count)\n", *qlimit)
		os.Exit(2)
	}

	if *selfcheck {
		runSelfcheck(*spec, *seed, *fuzzIters, *fuzzSeconds)
		return
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
		fmt.Fprintf(os.Stderr, "sornsim: unknown design %q\n", *design)
		os.Exit(2)
	}
	if err != nil {
		fatal(err)
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
		var cells int
		if _, err := fmt.Sscanf(*sizes, "fixed:%d", &cells); err != nil || cells < 1 {
			fmt.Fprintf(os.Stderr, "sornsim: bad -sizes %q\n", *sizes)
			os.Exit(2)
		}
		dist = workload.FixedSize(cells)
	}
	if *cap > 0 {
		dist = workload.NewCapped(dist, *cap)
	}

	tm, err := nw.LocalityMatrix(*x)
	if err != nil {
		fatal(err)
	}

	var st *netsim.Stats
	switch *mode {
	case "saturate":
		if *qlimit > 0 {
			fatal(fmt.Errorf("-qlimit applies to openloop mode only"))
		}
		if *faultSpec != "" {
			fatal(fmt.Errorf("-faultplan applies to openloop and avail modes only"))
		}
		sim, serr := nw.NewSim(core.SimOptions{
			SlotNS: *slotNS, PropNS: *propNS, Seed: *seed,
			LatencySampleEvery: 16, Planes: *planes, Workers: *workers, Obs: ob,
		})
		if serr != nil {
			fatal(serr)
		}
		st, err = sim.RunSaturated(netsim.SaturationConfig{
			TM: tm, Size: dist, TargetBacklog: *backlog, WarmupSlots: *warmup, MeasureSlots: *slots,
		})
	case "openloop":
		sim, serr := netsim.New(netsim.Config{
			Schedule: nw.Schedule, Router: nw.Router,
			SlotNS: *slotNS, PropNS: *propNS, Seed: *seed,
			LatencySampleEvery: 16, Planes: *planes, QueueLimit: *qlimit,
			Workers: *workers, Obs: ob,
		})
		if serr != nil {
			fatal(serr)
		}
		gen, gerr := workload.NewPoissonFlows(tm, dist, *load, *seed+1)
		if gerr != nil {
			fatal(gerr)
		}
		total := *warmup + *slots
		flows := gen.Window(0, total)
		sim.StartMeasuring()
		if *faultSpec != "" {
			// With a fault plan the driver owns the slot loop: fault
			// events apply between Steps, arrivals inject at their slot.
			plan, perr := faultplan.ParseSpec(*faultSpec, *n, *seed)
			if perr != nil {
				fatal(perr)
			}
			drv := faultplan.NewDriver(plan)
			next := 0
			for slot := int64(0); slot < total; slot++ {
				drv.Advance(sim, slot)
				for next < len(flows) && flows[next].Arrival <= slot {
					sim.InjectFlow(flows[next].Src, flows[next].Dst, flows[next].Size)
					next++
				}
				sim.Step()
				// Once the network drains, nothing happens until the
				// next arrival or fault event; skip straight there.
				// FastForwardTo checks quiescence itself.
				target := total
				if fs, ok := drv.NextSlot(); ok && fs < target {
					target = fs
				}
				if next < len(flows) && flows[next].Arrival < target {
					target = flows[next].Arrival
				}
				if sim.FastForwardTo(target) > 0 {
					slot = sim.Slot() - 1
				}
			}
		} else if rerr := sim.RunOpenLoop(flows, total); rerr != nil {
			fatal(rerr)
		}
		st = sim.Stats()
	case "avail":
		var plan *faultplan.Plan
		if *faultSpec != "" {
			var perr error
			plan, perr = faultplan.ParseSpec(*faultSpec, *n, *seed)
			if perr != nil {
				fatal(perr)
			}
		}
		var oStart, oEnd int64
		if *outage != "" {
			if _, oerr := fmt.Sscanf(*outage, "%d-%d", &oStart, &oEnd); oerr != nil || oEnd < oStart {
				fatal(fmt.Errorf("bad -outage %q (want start-end in slots)", *outage))
			}
		}
		res, aerr := experiments.Availability(experiments.AvailabilityConfig{
			N: *n, Nc: *nc, X: *x, Load: *load,
			Slots: *slots, Window: *window, EpochSlots: *epochSlots,
			OutageStart: oStart, OutageEnd: oEnd,
			Plan: plan, Seed: *seed, Workers: *workers, SweepWorkers: *sweepWorkers, Obs: ob,
		})
		if aerr != nil {
			fatal(aerr)
		}
		printAvailability(res, *n, *nc, *x, *load)
	default:
		fmt.Fprintf(os.Stderr, "sornsim: unknown mode %q\n", *mode)
		os.Exit(2)
	}
	if err != nil {
		fatal(err)
	}

	if st != nil {
		slotUS := float64(*slotNS) / 1000
		fmt.Printf("design=%s n=%d workload=%s mode=%s\n", nw.Kind, *n, dist.Name(), *mode)
		if nw.SORN != nil {
			fmt.Printf("cliques=%d realized q=%.2f schedule period=%d slots\n",
				nw.SORN.Cliques.NumCliques(), nw.SORN.RealizedQ, nw.Schedule.Period())
		}
		fmt.Printf("throughput r        %.4f cells/node/slot\n", st.Throughput(*n))
		fmt.Printf("mean hops           %.3f\n", st.MeanHops())
		fmt.Printf("delivered cells     %d\n", st.DeliveredCells)
		if st.LostCells > 0 {
			fmt.Printf("lost cells          %d (failures)\n", st.LostCells)
		}
		if st.DroppedCells > 0 {
			fmt.Printf("dropped cells       %d (queue limit)\n", st.DroppedCells)
		}
		fmt.Printf("completed flows     %d\n", st.CompletedFlows)
		if st.LatencySlots.Count() > 0 {
			fmt.Printf("cell latency p50    %.1f µs\n", st.LatencySlots.Percentile(50)*slotUS)
			fmt.Printf("cell latency p99    %.1f µs\n", st.LatencySlots.Percentile(99)*slotUS)
		}
		for h := 1; h < len(st.LatencyByHops); h++ {
			cls := &st.LatencyByHops[h]
			if cls.Count() == 0 {
				continue
			}
			fmt.Printf("  %d-hop cells p50   %.1f µs (%d samples)\n",
				h, cls.Percentile(50)*slotUS, cls.Count())
		}
		if st.FCTSlots.Count() > 0 {
			fmt.Printf("FCT p50             %.1f µs\n", st.FCTSlots.Percentile(50)*slotUS)
			fmt.Printf("FCT p99             %.1f µs\n", st.FCTSlots.Percentile(99)*slotUS)
		}
		if *hist && st.LatencySlots.Count() > 0 {
			h := stats.NewLogHistogram()
			for p := 0.5; p <= 100; p += 0.5 {
				h.Add(st.LatencySlots.Percentile(p))
			}
			fmt.Println("cell latency histogram (log2 buckets of slots, from percentile samples):")
			bounds, counts := h.Buckets()
			for i, b := range bounds {
				fmt.Printf("  >= %6.0f slots  %s\n", b, strings.Repeat("#", int(counts[i])))
			}
		}
	}

	if ob != nil {
		if err := obs.WriteFiles(ob, *tracePath, *metricsPath, os.Stderr); err != nil {
			fatal(err)
		}
		if err := ob.WritePhaseReport(os.Stderr); err != nil {
			fatal(err)
		}
	}
}

// printAvailability renders the two availability time series side by
// side — per-window throughput, end-of-window backlog, and losses for
// the resilient SORN run (with its degraded-mode marker) against the
// static oblivious baseline — then the degradation lifecycle verdict.
func printAvailability(res *experiments.AvailabilityResult, n, nc int, x, load float64) {
	fmt.Printf("availability: n=%d nc=%d x=%.2f load=%.2f — SORN+fallback vs static oblivious\n",
		n, nc, x, load)
	fmt.Printf("%10s  %8s %8s %6s %4s   %8s %8s %6s\n",
		"slot", "r", "backlog", "lost", "mode", "r", "backlog", "lost")
	for i, w := range res.SORN {
		mode := "ok"
		if w.Degraded {
			mode = "DEGR"
		}
		o := res.Oblivious[i]
		fmt.Printf("%10d  %8.4f %8d %6d %4s   %8.4f %8d %6d\n",
			w.Slot, w.Throughput, w.Backlog, w.Lost+w.Dropped, mode,
			o.Throughput, o.Backlog, o.Lost+o.Dropped)
	}
	fmt.Printf("fell back: %v   recovered: %v\n", res.FellBack, res.Recovered)
	fmt.Printf("delivered cells     sorn=%d oblivious=%d\n",
		res.SORNStats.DeliveredCells, res.ObliviousStats.DeliveredCells)
	fmt.Printf("lost cells          sorn=%d oblivious=%d\n",
		res.SORNStats.LostCells, res.ObliviousStats.LostCells)
}

// runSelfcheck is the differential-oracle entry point (-selfcheck):
// with -spec it replays exactly one scenario from its printed spec
// line; otherwise it fuzzes random scenarios until -fuzziters have run
// or the -fuzzseconds wall-clock budget elapses, whichever comes
// first. Exits nonzero on any unsuppressed violation or scenario
// error, printing a one-line reproducer spec for each.
func runSelfcheck(specLine string, seed uint64, iters, seconds int) {
	if specLine != "" {
		sp, err := oracle.ParseSpec(specLine)
		if err != nil {
			fatal(err)
		}
		rep, err := oracle.Run(sp)
		if err != nil {
			fatal(err)
		}
		if out := rep.String(); out != "" {
			fmt.Print(out)
		}
		if len(rep.Failed()) > 0 {
			os.Exit(1)
		}
		fmt.Printf("selfcheck ok: %s\n", sp.String())
		return
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
		fmt.Print(r.String())
	}
	fmt.Printf("selfcheck: %d scenarios, %d with findings, %d errors\n",
		res.Iterations, len(res.Reports), len(res.Errors))
	if res.Failed() {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sornsim:", err)
	os.Exit(1)
}
