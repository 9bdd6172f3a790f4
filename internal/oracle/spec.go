// Package oracle is the differential-testing and metamorphic-fuzzing
// harness that cross-validates the repo's three independent throughput
// oracles on identical scenarios:
//
//   - internal/model  — the paper's closed forms (and, in this package,
//     exact rational closed forms derived per design × traffic class)
//   - internal/fluid  — the link-load solver over the real schedule and
//     router path distributions
//   - internal/netsim — the slotted packet simulator
//
// plus metamorphic relations that need no oracle at all: node-relabeling
// invariance, demand-scaling linearity, clique symmetry, and fail→repair
// ≡ never-failed.
//
// Agreement budgets are per oracle pair (see EXPERIMENTS.md,
// "Differential testing"): model-vs-fluid is exact — both sides are
// evaluated in rational arithmetic (math/big.Rat) with capacities as
// integer slot counts and path probabilities recovered as the exact
// rationals their floats were rounded from — while fluid-float-vs-
// rational carries a 1e-9 relative budget and netsim a finite-horizon
// budget derived from the run length.
//
// Every scenario is described by a one-line Spec that reproduces it
// completely; violations print that line, and
// `sornsim -selfcheck -spec "<line>"` replays it.
package oracle

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/rng"
)

// Spec pins one scenario: the design point, the traffic matrix, the
// simulator shape, and the seed every derived random stream splits from.
// String() and ParseSpec round-trip, so a printed spec is a reproducer.
type Spec struct {
	Design string  // sorn | orn1 | orn2 | direct
	N      int     // nodes
	Nc     int     // cliques (sorn only)
	Q      float64 // sorn oversubscription; 0 = q*(X) clamped at 16
	X      float64 // sorn design-point locality ratio

	TM      string  // uniform | locality | permutation | hotspot | gravity
	TMParam float64 // locality x / hotspot fraction; unused otherwise

	Planes  int   // schedule planes (parallel uplinks)
	Warmup  int64 // netsim warmup slots
	Measure int64 // netsim measured slots

	Seed uint64 // root of every rng.Split stream the scenario uses
}

// String renders the one-line reproducer. Floats use %g, which
// round-trips exactly through ParseFloat.
func (s Spec) String() string {
	return fmt.Sprintf(
		"design=%s n=%d nc=%d q=%g x=%g tm=%s tmparam=%g planes=%d warmup=%d measure=%d seed=%d",
		s.Design, s.N, s.Nc, s.Q, s.X, s.TM, s.TMParam,
		s.Planes, s.Warmup, s.Measure, s.Seed)
}

// ParseSpec parses a String()-formatted line back into a Spec.
func ParseSpec(line string) (Spec, error) {
	var s Spec
	for _, tok := range strings.Fields(line) {
		key, val, found := strings.Cut(tok, "=")
		if !found {
			return Spec{}, fmt.Errorf("oracle: malformed spec token %q", tok)
		}
		var err error
		switch key {
		case "design":
			s.Design = val
		case "n":
			s.N, err = strconv.Atoi(val)
		case "nc":
			s.Nc, err = strconv.Atoi(val)
		case "q":
			s.Q, err = parseFinite(val)
		case "x":
			s.X, err = parseFinite(val)
		case "tm":
			s.TM = val
		case "tmparam":
			s.TMParam, err = parseFinite(val)
		case "planes":
			s.Planes, err = strconv.Atoi(val)
		case "warmup":
			s.Warmup, err = strconv.ParseInt(val, 10, 64)
		case "measure":
			s.Measure, err = strconv.ParseInt(val, 10, 64)
		case "seed":
			s.Seed, err = strconv.ParseUint(val, 10, 64)
		default:
			return Spec{}, fmt.Errorf("oracle: unknown spec key %q", key)
		}
		if err != nil {
			return Spec{}, fmt.Errorf("oracle: bad spec value %q: %v", tok, err)
		}
	}
	if s.Design == "" || s.N == 0 || s.TM == "" {
		return Spec{}, fmt.Errorf("oracle: spec %q missing design/n/tm", line)
	}
	return s, nil
}

// parseFinite parses a spec float, rejecting NaN (which would break the
// String/ParseSpec round trip, since NaN != NaN) and ±Inf (which no
// scenario can build).
func parseFinite(val string) (float64, error) {
	f, err := strconv.ParseFloat(val, 64)
	if err == nil && (math.IsNaN(f) || math.IsInf(f, 0)) {
		err = fmt.Errorf("%s is not finite", val)
	}
	return f, err
}

// localityGrid is the x values GenSpec draws from: sixteenths cover the
// domain, plus the paper's production median 0.56 (the 50/11 rational-q*
// path) and the near-saturated 0.9.
var localityGrid = []float64{
	0, 0.0625, 0.125, 0.1875, 0.25, 0.3125, 0.375, 0.4375,
	0.5, 0.5625, 0.625, 0.6875, 0.75, 0.8125, 0.875, 0.9375,
	0.56, 0.9,
}

// GenSpec draws a random scenario. Every dimension consumes its own
// rng.Split stream off r, so adding values to one dimension's pool never
// shifts another dimension's draw for the same root seed.
func GenSpec(r *rng.RNG) Spec {
	designR := r.Split()
	sizeR := r.Split()
	qR := r.Split()
	xR := r.Split()
	tmR := r.Split()
	planeR := r.Split()
	// The stream the retired workers dimension drew from: still split,
	// so the seed stream after it, and the generated corpus, stay put.
	_ = r.Split()
	seedR := r.Split()

	s := Spec{
		Planes:  1 + planeR.Intn(2),
		Warmup:  800,
		Measure: 3200,
		Seed:    seedR.Uint64(),
	}

	switch designR.Intn(10) {
	case 0, 1, 2, 3, 4: // sorn, half the corpus
		s.Design = "sorn"
		s.Nc = 2 + sizeR.Intn(5) // 2..6 cliques
		k := 2 + sizeR.Intn(7)   // 2..8 nodes per clique
		s.N = s.Nc * k           // ≤ 48
		s.X = localityGrid[xR.Intn(len(localityGrid))]
		if qR.Intn(10) < 3 {
			s.Q = float64(1 + qR.Intn(4)) // explicit integer q
		} // else 0: q*(x) clamped
	case 5, 6: // 1D optimal ORN (VLB)
		s.Design = "orn1"
		s.N = 8 + 2*sizeR.Intn(13) // 8..32 even
	case 7, 8: // h-dimensional ORN, h=2
		s.Design = "orn2"
		a := 3 + sizeR.Intn(4) // base 3..6 → N 9..36
		s.N = a * a
	default:
		s.Design = "direct"
		s.N = 8 + sizeR.Intn(25) // 8..32
	}

	// Traffic matrix: uniform everywhere; locality and gravity need the
	// clique structure; permutation and hotspot apply to every design.
	var tms []string
	if s.Design == "sorn" {
		tms = []string{"uniform", "locality", "locality", "permutation", "hotspot", "gravity"}
	} else {
		tms = []string{"uniform", "uniform", "permutation", "hotspot"}
	}
	s.TM = tms[tmR.Intn(len(tms))]
	switch s.TM {
	case "locality":
		s.TMParam = localityGrid[tmR.Intn(len(localityGrid))]
	case "hotspot":
		s.TMParam = []float64{0.2, 0.3, 0.5}[tmR.Intn(3)]
	}
	return s
}

// Corpus returns the fixed scenario set the CI gate replays on every
// run: one spec per design × traffic-class corner the checks care
// about, sized to finish quickly under -race. Seeds are arbitrary fixed
// constants — the point is that the corpus never drifts.
func Corpus() []Spec {
	lines := []string{
		"design=direct n=12 tm=uniform planes=1",
		"design=direct n=10 tm=permutation planes=2",
		"design=orn1 n=16 tm=uniform planes=1",
		"design=orn1 n=14 tm=permutation planes=2",
		"design=orn1 n=12 tm=hotspot tmparam=0.3 planes=1",
		"design=orn2 n=16 tm=uniform planes=1",
		"design=orn2 n=25 tm=hotspot tmparam=0.2 planes=1",
		"design=sorn n=16 nc=4 x=0.5 tm=locality tmparam=0.5 planes=1",
		"design=sorn n=24 nc=4 x=0.56 tm=locality tmparam=0.56 planes=2",
		"design=sorn n=16 nc=8 x=0.25 tm=uniform planes=1",
		"design=sorn n=16 nc=4 x=0 tm=locality tmparam=0 planes=1",
		"design=sorn n=18 nc=3 q=3 x=0.75 tm=locality tmparam=0.9375 planes=1",
		"design=sorn n=20 nc=5 x=0.5 tm=permutation planes=2",
		"design=sorn n=12 nc=3 x=0.5 tm=gravity planes=1",
	}
	specs := make([]Spec, 0, len(lines))
	for i, l := range lines {
		s, err := ParseSpec(l + fmt.Sprintf(" warmup=800 measure=3200 seed=%d", 0xC0FFEE+i))
		if err != nil {
			panic("oracle: bad corpus spec: " + err.Error())
		}
		specs = append(specs, s)
	}
	return specs
}
