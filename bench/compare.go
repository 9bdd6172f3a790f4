package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/sortedmap"
)

// benchSpec is BENCHMARK.json: the workloads, and each metric's unit,
// direction and bound.
type benchSpec struct {
	Workloads []workloadSpec `json:"workloads"`
	EndToEnd  []metricSpec   `json:"end_to_end"`
	PerLayer  []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// metrics returns the metrics a run reports: end-to-end untraced,
// per-layer traced.
func (s *benchSpec) metrics(trace bool) []metricSpec {
	if trace {
		return s.PerLayer
	}
	return s.EndToEnd
}

// quartiles returns the quartiles as Python's statistics.quantiles(v,
// n=4) computes them (the exclusive method); the middle one is the
// median.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	n, m := len(s), len(s)+1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	q1, m, q3 := quartiles(v)
	if !(math.Abs(m) > 0) {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}

// verdict compares set b against set a on metric m. delta is b's median
// change relative to a's. b is better when it wins nine pairs in ten
// and its median moved by more than a's spread; unresolved when either
// set's spread is wider than the bound; worse when its median is worse
// by more than the bound; otherwise the same.
func verdict(m metricSpec, a, b []float64) (delta float64, v string) {
	ma, mb := median(a), median(b)
	if math.Abs(ma) > 0 {
		delta = (mb - ma) / math.Abs(ma)
	}
	sign := 1.0 // positive change is worse
	if m.Better == "higher" {
		sign = -1
	}
	wins, pairs := 0, min(len(a), len(b))
	for i := 0; i < pairs; i++ {
		if sign*(b[i]-a[i]) < 0 {
			wins++
		}
	}
	switch {
	case pairs > 0 && float64(wins) >= 0.9*float64(pairs) && -sign*delta > spread(a):
		return delta, "better"
	case max(spread(a), spread(b)) > m.Bound:
		return delta, "unresolved"
	case sign*delta > m.Bound:
		return delta, "worse"
	}
	return delta, "same"
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

func appendRecord(path string, r record) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		_ = f.Close() // the write error is the one to report
		return err
	}
	return f.Close()
}

// compare prints, per workload and metric, each set's median and
// quartiles, the change, the bound and a verdict, then flags sim_digest
// mismatches and failed runs. It reports whether anything got worse.
func compare(w *strings.Builder, spec *benchSpec, a, b []record) bool {
	bad := false
	fmt.Fprintf(w, "%-13s %-26s %-6s %28s %28s %8s %6s  %s\n",
		"workload", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "delta", "bound", "verdict")
	for _, wl := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			for _, m := range spec.metrics(trace) {
				va, vb := values(a, wl.Name, trace, m.Name), values(b, wl.Name, trace, m.Name)
				if len(va) == 0 || len(vb) == 0 {
					continue
				}
				delta, v := verdict(m, va, vb)
				bound := fmt.Sprintf("%.0f%%", 100*m.Bound)
				if trace {
					v, bound = "-", "-"
				}
				bad = bad || v == "worse"
				fmt.Fprintf(w, "%-13s %-26s %-6s %28s %28s %+7.1f%% %6s  %s\n",
					wl.Name, m.Name, m.Unit, quartileString(va), quartileString(vb), 100*delta, bound, v)
			}
		}
	}
	digests := map[string]map[string]bool{}
	var keys []string
	for _, r := range append(append([]record(nil), a...), b...) {
		if !r.Correct {
			bad = true
			fmt.Fprintf(w, "FAILED: %s seed %d: %d of %d runs failed: %s\n",
				r.Workload, r.Seed, r.Failed, r.Attempted, strings.Join(r.Failures, "; "))
		}
		k := fmt.Sprintf("%s seed %d", r.Workload, r.Seed)
		if digests[k] == nil {
			digests[k] = map[string]bool{}
			keys = append(keys, k)
		}
		digests[k][r.Digest] = true
	}
	for _, k := range keys {
		if len(digests[k]) > 1 {
			bad = true
			fmt.Fprintf(w, "SIM_DIGEST MISMATCH: %s: %s\n", k, strings.Join(sortedmap.Keys(digests[k]), " "))
		}
	}
	return bad
}

func values(rs []record, workload string, trace bool, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload && r.Trace == trace {
			out = append(out, m.Value)
		}
	}
	return out
}

func quartileString(v []float64) string {
	q1, m, q3 := quartiles(v)
	return fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", m, q1, q3, len(v))
}
