package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/sortedmap"
)

// Every rep runs in a fresh process, as a user's CLI run does: the
// build cache starts cold, the heap grows from nothing, and the peak RSS
// is that rep's alone. The parent folds the reps into one record.

// repReport is one rep, printed by its process as the last line.
type repReport struct {
	Runs       int       `json:"runs"`
	Failures   []string  `json:"failures"`
	Digest     string    `json:"sim_digest"`
	Gap        float64   `json:"sim_fluid_gap"`
	WallS      float64   `json:"wall_s"`
	CPUS       float64   `json:"cpu_s"`
	AllocMB    float64   `json:"alloc_mb"`
	SetupS     []float64 `json:"setup_s"`
	GoMaxProcs int       `json:"gomaxprocs"`
	// Layers holds a traced rep's per-layer metrics.
	Layers map[string]float64 `json:"layers,omitempty"`
}

// Each rep's process times cold set-ups until they add up to setupTime,
// at least minSetups and at most maxSetups of them, so cheap builds are
// sampled often enough for a steady median.
const (
	setupTime = 200 * time.Millisecond
	minSetups = 3
	maxSetups = 50
)

func buildAll(w *benchWorkload, c *core.BuildCache) error {
	for _, b := range w.builds {
		if err := b(c); err != nil {
			return fmt.Errorf("%s: build: %w", w.name, err)
		}
	}
	return nil
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measureRep runs one rep of w in this process: cold builds of every
// network into fresh caches, the shared cache warmed so the rep excludes
// builds, then the rep through the entry point — or, with a tracer,
// through the traced drivers, as run "rep<id>".
func measureRep(w *benchWorkload, tr *tracer, id int) (repReport, error) {
	r := repReport{GoMaxProcs: runtime.GOMAXPROCS(0)}
	var buildMS, builds []float64
	start := time.Now()
	for i := 1; i <= maxSetups && (i <= minSetups || time.Since(start) < setupTime); i++ {
		c := core.NewBuildCache()
		t0 := time.Now()
		if tr == nil {
			if err := buildAll(w, c); err != nil {
				return r, err
			}
			r.SetupS = append(r.SetupS, time.Since(t0).Seconds())
			continue
		}
		tr.startRun(fmt.Sprintf("rep%d.setup%d", id, i))
		root := tr.begin("setup", -1)
		for _, b := range w.builds {
			if err := tr.time("core.build", root, func() error { return b(c) }); err != nil {
				return r, err
			}
		}
		tr.end(root)
		rd := tr.takeRun()
		buildMS = append(buildMS, float64(rd.ns["core.build"])/1e6)
		builds = append(builds, float64(rd.calls["core.build"]))
	}
	if err := buildAll(w, core.SharedBuilds); err != nil {
		return r, err
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var (
		o    outcome
		err  error
		root int
	)
	c0, t0 := cpuTime(), time.Now()
	if tr == nil {
		o, err = w.plain()
	} else {
		tr.startRun(fmt.Sprintf("rep%d", id))
		root = tr.begin("rep", -1)
		o, err = w.traced(tr, root)
		tr.end(root)
	}
	wall, cpu := time.Since(t0), cpuTime()-c0
	runtime.ReadMemStats(&m1)
	if err != nil {
		return r, err
	}
	r.Runs, r.Failures, r.Gap, r.Digest = o.runs, o.failures, o.gap, fmt.Sprintf("%016x", o.digest)
	r.WallS, r.CPUS = wall.Seconds(), cpu.Seconds()
	r.AllocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
	if tr != nil {
		rd := tr.takeRun()
		r.Layers = layerMetrics(rd)
		r.Layers["runtime.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
		r.Layers["runtime.gc_pause_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
		r.Layers["core.build_ms"] = median(buildMS)
		r.Layers["core.builds"] = median(builds)
	}
	return r, nil
}

// repMain is a rep's process: it measures one rep and prints its report.
func repMain(name string, seed uint64, trace bool, id int, spansPath string) error {
	ws, err := workloads(seed)
	if err != nil {
		return err
	}
	w, err := findWorkload(ws, name)
	if err != nil {
		return err
	}
	var tr *tracer
	if trace {
		tr = newTracer()
	}
	r, err := measureRep(w, tr, id)
	if err != nil {
		return err
	}
	if tr != nil && spansPath != "" {
		if err := tr.appendJSONL(spansPath); err != nil {
			return err
		}
	}
	out, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// runTimeout bounds a whole run, so it ends within three minutes.
const runTimeout = 170 * time.Second

// runRep runs rep id in a child process pinned to two Go processors and
// returns its report and peak RSS in MB.
func runRep(ctx context.Context, name string, seed uint64, trace bool, id int, spansPath string) (repReport, float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return repReport{}, 0, err
	}
	cmd := exec.CommandContext(ctx, exe, "-rep", strconv.Itoa(id), "-workload", name,
		"-seed", strconv.FormatUint(seed, 10), "-trace", strconv.Itoa(boolBit(trace)), "-spans", spansPath)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		return repReport{}, 0, fmt.Errorf("%s: rep %d: %w", name, id, err)
	}
	var r repReport
	if err := json.Unmarshal(lastLine(stdout.Bytes()), &r); err != nil {
		return repReport{}, 0, fmt.Errorf("%s: rep %d output: %w", name, id, err)
	}
	if r.GoMaxProcs != 2 {
		return repReport{}, 0, fmt.Errorf("%s: rep %d ran with GOMAXPROCS=%d, want 2", name, id, r.GoMaxProcs)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return repReport{}, 0, fmt.Errorf("%s: rep %d: no resource usage", name, id)
	}
	return r, float64(ru.Maxrss) * 1024 / 1e6, nil
}

func lastLine(b []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	return last
}

// runWorkload measures one workload for about seconds: reps, each in
// its own process, until the next would run past the budget. An
// end-to-end run takes at least three reps. A traced run alternates
// untraced and traced reps, at least one pair, so the tracing overhead
// is measured under the same conditions.
func runWorkload(spec *benchSpec, name string, seed uint64, seconds int, trace bool, spansPath string) (record, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	if spansPath != "" {
		if err := os.Remove(spansPath); err != nil && !os.IsNotExist(err) {
			return record{}, err
		}
	}
	budget := time.Duration(seconds) * time.Second
	start := time.Now()
	var plain, traced []repReport
	var rss, plainTook, tracedTook []float64
	for {
		tracedRep := trace && len(traced) < len(plain)
		t0 := time.Now()
		r, maxRSS, err := runRep(ctx, name, seed, tracedRep, len(plain)+len(traced)+1, spansPath)
		if err != nil {
			return record{}, err
		}
		took := time.Since(t0).Seconds()
		if tracedRep {
			traced, tracedTook = append(traced, r), append(tracedTook, took)
		} else {
			plain, plainTook, rss = append(plain, r), append(plainTook, took), append(rss, maxRSS)
		}
		next := median(plainTook)
		if trace {
			next += median(tracedTook)
		}
		done := len(plain) >= 3 && !trace || len(traced) >= 1 && len(traced) == len(plain)
		if done && time.Since(start)+dur(next) > budget {
			break
		}
	}
	return aggregate(spec, name, seed, trace, plain, traced, rss)
}

func dur(seconds float64) time.Duration { return time.Duration(seconds * 1e9) }

// aggregate folds a run's reps into its record, and fails any rep whose
// simulated output differs from the first rep's. The times are the
// fastest rep's: a rep's work is fixed by the seed, and a busy host only
// ever slows a rep down, so the fastest rep is the steadiest estimate of
// what the work costs. A run's median rep moves with how many of its reps
// the host slowed. Everything else is a median across reps.
func aggregate(spec *benchSpec, name string, seed uint64, trace bool, plain, traced []repReport, rss []float64) (record, error) {
	r := record{Workload: name, Seed: seed, Trace: trace, NProc: runtime.NumCPU(), Metrics: map[string]metric{}}
	var walls, cpus, allocs, setups []float64
	layers := map[string][]float64{}
	for i, rep := range append(append([]repReport(nil), plain...), traced...) {
		r.Attempted += rep.Runs
		r.Failures = append(r.Failures, rep.Failures...)
		r.Gap = max(r.Gap, rep.Gap)
		if i == 0 {
			r.Digest = rep.Digest
		} else if rep.Digest != r.Digest {
			r.Failures = append(r.Failures, fmt.Sprintf("rep %d: sim_digest %s differs from rep 1's %s", i+1, rep.Digest, r.Digest))
		}
		if i < len(plain) {
			walls, cpus, allocs = append(walls, rep.WallS), append(cpus, rep.CPUS), append(allocs, rep.AllocMB)
			setups = append(setups, median(rep.SetupS))
		}
		for _, k := range sortedmap.Keys(rep.Layers) {
			layers[k] = append(layers[k], rep.Layers[k])
		}
	}
	r.Reps, r.RepWalls, r.RepCPUs = len(plain)+len(traced), walls, cpus
	r.Failed, r.Correct = len(r.Failures), len(r.Failures) == 0
	vals := map[string]float64{
		"wall_s":   slices.Min(walls),
		"cpu_s":    slices.Min(cpus),
		"setup_s":  slices.Min(setups),
		"alloc_mb": median(allocs),
	}
	if trace {
		// Peak RSS is a traced-run metric with no bound: across processes
		// of the same input it varies with GC timing, and is bimodal on
		// avail-churn. It comes from the untraced reps.
		vals = map[string]float64{"runtime.max_rss_mb": median(rss)}
		var tracedWalls []float64
		for _, rep := range traced {
			tracedWalls = append(tracedWalls, rep.WallS)
		}
		for _, k := range sortedmap.Keys(layers) {
			vals[k] = median(layers[k])
		}
		vals["trace.overhead_frac"] = slices.Min(tracedWalls)/slices.Min(walls) - 1
	}
	for _, m := range spec.metrics(trace) {
		v, ok := vals[m.Name]
		if !ok {
			return record{}, fmt.Errorf("%s: no value for %s", name, m.Name)
		}
		r.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	return r, nil
}

// record is one benchmark run as the parent reports it and as -out and
// compare store it, one JSON object per line.
type record struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Digest    string            `json:"sim_digest"`
	Gap       float64           `json:"sim_fluid_gap"`
	Reps      int               `json:"reps"`
	RepWalls  []float64         `json:"rep_wall_s"`
	RepCPUs   []float64         `json:"rep_cpu_s"`
	NProc     int               `json:"nproc"`
	Failures  []string          `json:"failures,omitempty"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
