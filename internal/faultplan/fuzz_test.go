package faultplan

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzParseSpec feeds arbitrary spec text and node counts in [0, 64] to
// ParseSpec. It must never panic, and every plan it accepts must be
// over n nodes, hold only events valid for n in canonical order, and
// parse identically a second time. A lone churn entry must also keep
// Churn's well-formed fail/repair lifecycle. The seed corpus is the
// specs the ParseSpec tests use plus a window too long to materialize
// and a repair slot that overflows, so `go test` runs it as an ordinary
// test.
func FuzzParseSpec(f *testing.F) {
	for _, spec := range append([]string{
		"node7@500-1500; link0:9@800-1200 ;node2@50",
		"node3@100-200;churn@0-2000,links=0.02,nodes=0.01,down=50",
		"",
		"churn@0-99999999999",
		"churn@9223372036854775000-9223372036854775807,nodes=1,down=9223372036854775000",
	}, badSpecs...) {
		f.Add(spec, 16, uint64(7))
	}
	f.Fuzz(func(t *testing.T, spec string, n int, seed uint64) {
		n = int(uint(n) % 65)
		p, err := ParseSpec(spec, n, seed)
		if err != nil {
			return
		}
		if p.N() != n {
			t.Fatalf("plan over %d nodes, want %d", p.N(), n)
		}
		evs := p.Events()
		for i, e := range evs {
			if err := e.validate(n); err != nil {
				t.Fatalf("accepted invalid event %+v: %v", e, err)
			}
			if i > 0 && e.less(evs[i-1]) {
				t.Fatalf("events %+v and %+v out of canonical order", evs[i-1], e)
			}
		}
		if entry := strings.TrimSpace(spec); strings.HasPrefix(entry, "churn@") && !strings.Contains(entry, ";") {
			checkLifecycle(t, p)
		}
		again, err := ParseSpec(spec, n, seed)
		if err != nil || !reflect.DeepEqual(again.Events(), evs) {
			t.Fatalf("second parse differs: err %v", err)
		}
	})
}
