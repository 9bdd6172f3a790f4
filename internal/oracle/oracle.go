package oracle

import (
	"fmt"
	"strings"

	"repro/internal/fluid"
	"repro/internal/rng"
)

// Violation is one failed (or suppressed) check for one scenario.
type Violation struct {
	Check  string // which check fired (stable identifier)
	Detail string // what disagreed, with values

	// Suppressed marks a known, justified disagreement — recorded so it
	// stays visible in reports, but not counted as a failure. The only
	// current suppression is the source paper's own δm text-vs-Table-1
	// inconsistency (see checkDeltaM).
	Suppressed    bool
	Justification string
}

// Report collects every violation for one spec. The spec line is the
// reproducer: `sornsim -selfcheck -spec "<line>"` replays it.
type Report struct {
	Spec       Spec
	Violations []Violation
}

func (r *Report) add(check, format string, args ...any) {
	r.Violations = append(r.Violations, Violation{Check: check, Detail: fmt.Sprintf(format, args...)})
}

func (r *Report) suppress(check, detail, justification string) {
	r.Violations = append(r.Violations, Violation{
		Check: check, Detail: detail, Suppressed: true, Justification: justification,
	})
}

// Failed returns the unsuppressed violations.
func (r *Report) Failed() []Violation {
	var out []Violation
	for _, v := range r.Violations {
		if !v.Suppressed {
			out = append(out, v)
		}
	}
	return out
}

// String renders the report one line per violation, each carrying the
// reproducing spec.
func (r *Report) String() string {
	var b strings.Builder
	for _, v := range r.Violations {
		tag := "VIOLATION"
		if v.Suppressed {
			tag = "suppressed"
		}
		fmt.Fprintf(&b, "%s [%s] %s\n  repro: sornsim -selfcheck -spec %q\n", tag, v.Check, v.Detail, r.Spec.String())
		if v.Justification != "" {
			fmt.Fprintf(&b, "  justification: %s\n", v.Justification)
		}
	}
	return b.String()
}

// Run builds the spec's scenario and runs every applicable check:
// router-path invariants, float-vs-rational solver agreement, the
// independently derived closed forms, the paper's model lower bounds,
// node-relabeling invariance, demand-scaling linearity, SORN clique
// symmetry and δm formulas, packet-simulator saturation throughput, and
// zero-window fail→repair identity. An error
// means the spec could not be built or solved at all (itself a finding
// when unexpected); disagreements between oracles are Violations, not
// errors.
func Run(spec Spec) (*Report, error) {
	rep := &Report{Spec: spec}
	sc, err := build(spec)
	if err != nil {
		return nil, err
	}

	checkRouterInvariants(sc, rep)

	fl, err := fluid.Solve(sc.sched, sc.router, sc.tm)
	if err != nil {
		return nil, fmt.Errorf("oracle: fluid solve: %w", err)
	}
	rr, err := solveRat(sc.sched, sc.router, sc.ratTM)
	if err != nil {
		// The rational solver mirrors fluid.Solve; if only the rational
		// side fails, that is a disagreement, not an infrastructure error.
		rep.add("rational-solve", "%v", err)
		return rep, nil
	}

	checkFloatVsRational(sc, fl, rr, rep)
	checkClosedForm(sc, fl, rr, rep)
	checkRelabeling(sc, fl, rr, rep)
	checkScaling(sc, fl, rep)
	if spec.Design == "sorn" {
		checkCliqueSymmetry(sc, rr, rep)
		checkDeltaM(sc, rep)
	}
	checkSim(sc, fl, rep)
	checkFailRepair(sc, fl, rep)
	return rep, nil
}

// FuzzResult summarizes a fuzzing run.
type FuzzResult struct {
	Iterations int
	Reports    []*Report // only reports with violations (incl. suppressed-only)
	Errors     []string  // scenario build/solve errors, with their spec lines
}

// Failed reports whether any unsuppressed violation or error occurred.
func (f *FuzzResult) Failed() bool {
	if len(f.Errors) > 0 {
		return true
	}
	for _, r := range f.Reports {
		if len(r.Failed()) > 0 {
			return true
		}
	}
	return false
}

// Fuzz draws random scenarios from seed and runs the full check suite on
// each until iters scenarios have run or stop returns true (checked
// between scenarios; pass a deadline closure — this package takes no
// wall-clock dependency itself). Each iteration's spec derives from its
// own split stream, so any violation reproduces from the printed spec
// line alone, independent of iteration order or count.
func Fuzz(seed uint64, iters int, stop func() bool) *FuzzResult {
	root := rng.New(seed)
	res := &FuzzResult{}
	for i := 0; i < iters; i++ {
		if stop != nil && stop() {
			break
		}
		spec := GenSpec(root.Split())
		res.Iterations++
		rep, err := Run(spec)
		if err != nil {
			res.Errors = append(res.Errors, fmt.Sprintf("%v\n  repro: sornsim -selfcheck -spec %q", err, spec.String()))
			continue
		}
		if len(rep.Violations) > 0 {
			res.Reports = append(res.Reports, rep)
		}
	}
	return res
}
