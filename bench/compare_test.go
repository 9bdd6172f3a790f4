package main

import (
	"math"
	"strings"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(v, n=4) for each v.
	for _, c := range []struct {
		v    []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{3.1, 2.7, 9.4, 4.4, 5.0, 6.2, 1.1}, [3]float64{2.7, 4.4, 6.2}},
	} {
		q1, q2, q3 := quartiles(c.v)
		for i, got := range []float64{q1, q2, q3} {
			if math.Abs(got-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v)[%d] = %v, want %v", c.v, i, got, c.want[i])
			}
		}
	}
}

func scaled(v []float64, f float64) []float64 {
	out := make([]float64, len(v))
	for i := range v {
		out[i] = v[i] * f
	}
	return out
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "wall_s", Better: "lower", Bound: 0.1}
	higher := metricSpec{Name: "busy", Better: "higher", Bound: 0.1}
	a := []float64{10, 10.1, 9.9, 10, 10.05, 9.95, 10.02, 9.98, 10.01, 9.99}
	noisy := []float64{5, 15, 8, 12, 10, 6, 14, 9, 11, 10}
	for _, c := range []struct {
		name string
		m    metricSpec
		b    []float64
		want string
	}{
		{"20% slower", lower, scaled(a, 1.2), "worse"},
		{"20% faster", lower, scaled(a, 0.8), "better"},
		{"2% slower", lower, scaled(a, 1.02), "same"},
		{"higher is better", higher, scaled(a, 0.8), "worse"},
		{"noise wider than the bound", lower, noisy, "unresolved"},
	} {
		if _, got := verdict(c.m, a, c.b); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
	if d, _ := verdict(lower, a, scaled(a, 1.2)); math.Abs(d-0.2) > 1e-9 {
		t.Errorf("delta %v, want 0.2", d)
	}
}

func TestCompare(t *testing.T) {
	spec := &benchSpec{
		Workloads: []workloadSpec{{Name: "w"}},
		EndToEnd:  []metricSpec{{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.1}},
	}
	rec := func(wall float64, digest string) record {
		return record{Workload: "w", Seed: 42, Correct: true, Digest: digest,
			Metrics: map[string]metric{"wall_s": {Value: wall, Unit: "s"}}}
	}
	a := []record{rec(1, "x"), rec(1.01, "x"), rec(0.99, "x")}

	var sb strings.Builder
	if compare(&sb, spec, a, []record{rec(1, "x"), rec(1.02, "x"), rec(1, "x")}) {
		t.Errorf("an A/A pair should pass:\n%s", sb.String())
	}
	sb.Reset()
	if !compare(&sb, spec, a, []record{rec(1.3, "x"), rec(1.31, "x"), rec(1.29, "x")}) ||
		!strings.Contains(sb.String(), "worse") {
		t.Errorf("a 30%% slowdown should be flagged:\n%s", sb.String())
	}
	sb.Reset()
	if !compare(&sb, spec, a, []record{rec(1, "y"), rec(1, "y"), rec(1, "y")}) ||
		!strings.Contains(sb.String(), "SIM_DIGEST MISMATCH: w seed 42: x y") {
		t.Errorf("a changed digest should be flagged:\n%s", sb.String())
	}
}
