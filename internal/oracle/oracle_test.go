package oracle

import (
	"math/big"
	"strings"
	"testing"

	"repro/internal/fluid"
	"repro/internal/rng"
)

func mustSpec(t *testing.T, line string) Spec {
	t.Helper()
	s, err := ParseSpec(line)
	if err != nil {
		t.Fatalf("ParseSpec(%q): %v", line, err)
	}
	return s
}

func TestSpecRoundTrip(t *testing.T) {
	for _, spec := range Corpus() {
		back, err := ParseSpec(spec.String())
		if err != nil {
			t.Fatalf("ParseSpec(String()) failed for %v: %v", spec, err)
		}
		if back != spec {
			t.Errorf("round trip changed spec:\n  in  %v\n  out %v", spec, back)
		}
	}
}

// TestGenSpecPinned pins the generated scenario of three root seeds: a
// spec dimension that starts or stops drawing its stream would shift
// every spec after it, and the fuzz corpus with it. The specs are the
// ones generated while a workers dimension still drew between planes and
// seed, minus that field.
func TestGenSpecPinned(t *testing.T) {
	for _, c := range []struct {
		root uint64
		want string
	}{
		{1, "design=orn2 n=16 nc=0 q=0 x=0 tm=uniform tmparam=0 planes=1 warmup=800 measure=3200 seed=14434258118445135378"},
		{3, "design=sorn n=25 nc=5 q=2 x=0.875 tm=locality tmparam=0.25 planes=1 warmup=800 measure=3200 seed=10591119121786037681"},
		{11, "design=orn1 n=32 nc=0 q=0 x=0 tm=hotspot tmparam=0.2 planes=2 warmup=800 measure=3200 seed=7800862435095133595"},
	} {
		if got := GenSpec(rng.New(c.root)).String(); got != c.want {
			t.Errorf("GenSpec(root %d):\n  got  %s\n  want %s", c.root, got, c.want)
		}
	}
}

// malformedSpecs are spec lines ParseSpec must reject.
var malformedSpecs = []string{
	"design=sorn",                              // missing n/tm
	"design=sorn n=12 tm=uniform bogus=1",      // unknown key
	"design=sorn n=twelve tm=uniform",          // bad int
	"design sorn n=12 tm=uniform",              // missing =
	"design=sorn n=16 nc=4 q=NaN tm=uniform",   // NaN never round-trips
	"design=sorn n=16 nc=4 x=+Inf tm=locality", // non-finite locality
	"design=orn1 n=12 tm=hotspot tmparam=-Inf", // non-finite TM parameter
	"design=orn1 n=12 tm=uniform workers=2",    // retired key
}

func TestParseSpecRejectsMalformed(t *testing.T) {
	for _, line := range malformedSpecs {
		if _, err := ParseSpec(line); err == nil {
			t.Errorf("ParseSpec(%q) accepted a malformed spec", line)
		}
	}
}

// TestOracleCorpus is the CI gate: every fixed-corpus scenario must pass
// every check with zero unsuppressed violations, and the known δm
// text-vs-table suppression must actually be exercised on SORN specs.
func TestOracleCorpus(t *testing.T) {
	sawSuppression := false
	for _, spec := range Corpus() {
		rep, err := Run(spec)
		if err != nil {
			t.Errorf("Run(%s): %v", spec, err)
			continue
		}
		for _, v := range rep.Failed() {
			t.Errorf("spec %s\n  [%s] %s", spec, v.Check, v.Detail)
		}
		for _, v := range rep.Violations {
			if v.Suppressed {
				sawSuppression = true
				if v.Justification == "" {
					t.Errorf("spec %s: suppressed violation %q without justification", spec, v.Check)
				}
			}
		}
	}
	if !sawSuppression {
		t.Error("corpus never exercised the δm paper-inconsistency suppression")
	}
}

func TestFuzzSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz smoke is not a -short test")
	}
	res := Fuzz(1, 4, nil)
	if res.Iterations != 4 {
		t.Fatalf("ran %d iterations, want 4", res.Iterations)
	}
	if res.Failed() {
		for _, e := range res.Errors {
			t.Error(e)
		}
		for _, r := range res.Reports {
			t.Error(r.String())
		}
	}
}

func TestFuzzStop(t *testing.T) {
	calls := 0
	res := Fuzz(2, 100, func() bool { calls++; return calls > 2 })
	if res.Iterations != 2 {
		t.Fatalf("stop after 2 iterations, ran %d", res.Iterations)
	}
}

// TestHarnessDetectsDisagreement seeds a fault — a float θ nudged off the
// rational value, and a non-linear scaled matrix — and asserts the
// differential checks actually fire. A harness that cannot detect an
// injected bug proves nothing when it passes.
func TestHarnessDetectsDisagreement(t *testing.T) {
	spec := mustSpec(t, "design=orn1 n=12 tm=uniform planes=1 warmup=200 measure=400 seed=7")
	sc, err := build(spec)
	if err != nil {
		t.Fatal(err)
	}
	fl, err := fluid.Solve(sc.sched, sc.router, sc.tm)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := solveRat(sc.sched, sc.router, sc.ratTM)
	if err != nil {
		t.Fatal(err)
	}

	rep := &Report{Spec: spec}
	checkFloatVsRational(sc, fl, rr, rep)
	if len(rep.Violations) != 0 {
		t.Fatalf("unperturbed scenario reported violations: %v", rep.Violations)
	}

	perturbed := *fl
	perturbed.Theta *= 1 + 1e-6
	rep = &Report{Spec: spec}
	checkFloatVsRational(sc, &perturbed, rr, rep)
	if len(rep.Violations) == 0 {
		t.Error("float-vs-rational check missed a 1e-6 perturbation")
	}
	// The closed form compares rationals exactly; perturb the rational
	// side and it must fire.
	badRat := &ratResult{theta: new(big.Rat).Set(rr.theta)}
	badRat.theta.Mul(badRat.theta, big.NewRat(3, 2))
	rep = &Report{Spec: spec}
	checkClosedForm(sc, fl, badRat, rep)
	if len(rep.Violations) == 0 {
		t.Error("closed-form check missed a 3/2 rational perturbation")
	}
}

// TestViolationOutputCarriesRepro: every rendered violation line must
// carry the spec reproducer.
func TestViolationOutputCarriesRepro(t *testing.T) {
	rep := &Report{Spec: Corpus()[0]}
	rep.add("example", "synthetic")
	out := rep.String()
	if !strings.Contains(out, "-selfcheck -spec") || !strings.Contains(out, Corpus()[0].String()) {
		t.Errorf("report output lacks reproducer:\n%s", out)
	}
}
