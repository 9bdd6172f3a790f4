#!/usr/bin/env bash
# ci.sh is the canonical pre-merge check: everything main must pass.
#
#   ./scripts/ci.sh
#
# Steps, in order, each fatal:
#   1. gofmt -l              -- no formatting drift anywhere in the tree
#   2. go build ./...        -- the module compiles
#   3. go vet ./...          -- stdlib vet findings
#      inlining              -- `go build -gcflags=-m ./internal/netsim`
#                               still reports that (*fifo).push and
#                               (*fifo).pop inline: every VOQ push and
#                               pop of a saturated slot sits on the hot
#                               path, and a push that stops inlining
#                               pays a call per enqueue (a few percent
#                               of a cache-resident Step)
#   4. sornlint              -- this repo's determinism & correctness
#                               rules (internal/lint), run with -json
#                               against the committed lint_baseline.json:
#                               only NEW findings fail; regenerate the
#                               baseline with scripts/lint-baseline.sh.
#                               The step is timed, and exports
#                               SORNLINT_CI_RAN so the go test steps
#                               skip lint_test.go's duplicate
#                               whole-module type-check (one load per
#                               ci.sh run, not three)
#   5. go test ./...         -- tier-1 tests
#   6. race determinism      -- the determinism invariants under the
#                               race detector, explicitly, so a failure
#                               names the engine invariant: an attached
#                               observer never changes Stats, Sim.Reset
#                               bit-identity vs a fresh simulator, every
#                               effect of InjectFlow, FailNode and
#                               Reconfigure visible when the call
#                               returns, a flow that loses and delivers
#                               a cell in the same Step settling once,
#                               sweep results
#                               bit-identical across sweep concurrency,
#                               and the production active-set engine
#                               bit-identical to the dense reference
#                               engine the netsim tests keep (Stats,
#                               series, traces) through fault churn,
#                               reconfiguration, and fast-forward
#   7. oracle corpus         -- the differential-testing corpus gate
#                               (internal/oracle) under -race: three
#                               independent throughput oracles must
#                               agree on every fixed scenario, and every
#                               metamorphic relation must hold; budgeted
#                               random fuzzing is scripts/fuzz.sh
#   8. go test -race ./...   -- the race detector over the full suite;
#                               the sweep's goroutine fan-out in
#                               internal/sweep and internal/experiments
#                               must be both race-free and deterministic
#   9. bench module tests    -- (cd bench && go test ./...): bench/ is
#                               its own module, outside go test ./...,
#                               and its tests are the bit-identity gate
#                               between each experiment entry point and
#                               the benchmark's traced mirror of it
#                               (TestAvailTracedMatchesEntryPoint,
#                               TestFCTTracedMatchesEntryPoint,
#                               TestFig2fTracedMatchesEntryPoint); ~1.5 s
#  10. bench.sh -quick       -- the benchmark harness builds, runs, and
#                               its JSON emitter parses the output; no
#                               thresholds, and the committed
#                               BENCH_netsim.json is left untouched
#  11. obs overhead gate     -- BenchmarkInjectSaturated (one full
#                               saturated slot, injection through
#                               delivery) run twice on this machine,
#                               observer off then on (-benchobs),
#                               compared via `benchjson compare`; fails
#                               if attaching the observability layer
#                               costs >5% ns/op. (Same-machine A/B:
#                               committed ledger entries from other
#                               hosts are not comparable in absolute
#                               ns/op.)
#  12. active engine gate    -- the slot-level saturated benchmarks
#                               (BenchmarkStepSaturated: stepping a
#                               primed 128-node sim to drain, and
#                               BenchmarkStepSaturatedFull: Step with
#                               the backlog held at the saturation
#                               target, injection outside the timed
#                               region) run on the netsim tests' dense
#                               reference engine (the test binary's
#                               -benchdense flag) then on the
#                               production active-set engine, compared
#                               via `benchjson compare`; fails if the
#                               active-set bookkeeping makes the
#                               *saturated* regime — where the active
#                               set is every (src, plane) pair and the
#                               incremental tracking is pure overhead —
#                               more than 5% slower than the dense scan
#                               it replaced. Slot-level, injection-free
#                               benchmarks only: on a shared host both
#                               the CI-sized sweep's wall clock and the
#                               RNG/allocation-heavy injection path
#                               drift more than the 5% budget between
#                               identical configurations (an A/A
#                               comparison flakes), so the sweep and
#                               whole-slot numbers are tracked in the
#                               committed ledger instead. (The sparse
#                               regime's win is likewise recorded in the
#                               ledger, not gated here: it is the point
#                               of the engine, not a risk.)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt -l"
drift="$(gofmt -l .)"
if [ -n "$drift" ]; then
  echo "gofmt drift in:" >&2
  echo "$drift" >&2
  exit 1
fi

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== (*fifo).push and (*fifo).pop inline"
inlining="$(go build -gcflags=-m ./internal/netsim 2>&1)"
for fn in push pop; do
  if ! grep -qF "can inline (*fifo).$fn" <<<"$inlining"; then
    echo "(*fifo).$fn no longer inlines; see go build -gcflags=-m=2 ./internal/netsim for its cost" >&2
    exit 1
  fi
done

echo "== sornlint -json -baseline lint_baseline.json ./..."
lint_start=$SECONDS
go run ./cmd/sornlint -json -baseline lint_baseline.json ./...
echo "   (sornlint step took $((SECONDS - lint_start))s)"
# The dedicated step above already type-checked and analyzed the whole
# module; tell lint_test.go not to repeat that work in the test steps.
export SORNLINT_CI_RAN=1

echo "== go test ./..."
go test ./...

# TestObsNonPerturbation pins observed runs to unobserved ones,
# TestSimResetBitIdentity pins Reset-reused sims to fresh ones,
# TestSerialCallsPublishBeforeReturn pins that the serial calls between
# Steps write every effect before they return (with simulators stepping
# alongside), TestSameSlotLossAndDelivery pins that a flow losing one
# cell and delivering another in one Step settles once and is not done,
# whichever comes first, and TestSweepDeterminismAcrossConcurrency pins
# sweep results across worker counts (including pooled-Reset vs freshly
# built simulators).
netsim_race='TestObsNonPerturbation|TestSimResetBitIdentity|TestSerialCallsPublishBeforeReturn|TestSameSlotLossAndDelivery'
echo "== go test -race -run '$netsim_race' ./internal/netsim/"
go test -race -run "$netsim_race" ./internal/netsim/

echo "== go test -race -run 'TestSweepDeterminismAcrossConcurrency' ./internal/experiments/"
go test -race -run 'TestSweepDeterminismAcrossConcurrency' ./internal/experiments/

# The dense reference engine, kept in the netsim test package, is the
# executable specification of the per-slot algorithm; the production
# active-set engine must reproduce it bit-identically —
# Stats, series rows, event traces — through fault churn, mid-run
# reconfiguration, pooled Reset reuse, and quiescence fast-forward.
echo "== go test -race -run 'TestDenseActiveEquivalence|TestFastForwardTo' ./internal/netsim/"
go test -race -run 'TestDenseActiveEquivalence|TestFastForwardTo' ./internal/netsim/

# The differential-oracle corpus gate: every fixed scenario must agree
# across the closed forms, the rational solver, the float fluid solver,
# and the packet simulator, with the metamorphic relations (relabeling,
# scaling, clique symmetry, fail→repair) holding under
# the race detector. Budgeted random fuzzing lives in scripts/fuzz.sh.
echo "== go test -race -run 'TestOracleCorpus' ./internal/oracle/"
go test -race -run 'TestOracleCorpus' ./internal/oracle/

echo "== go test -race ./..."
go test -race ./...

echo "== (cd bench && go test ./...)"
(cd bench && go test ./...)

echo "== scripts/bench.sh -quick"
./scripts/bench.sh -quick

echo "== obs overhead gate (InjectSaturated, observer off vs on, 5% budget)"
obsdir="$(mktemp -d)"
trap 'rm -rf "$obsdir"' EXIT
# Prebuild both binaries so compilation never competes with the timed
# runs for CPU. Interleave off/on passes so slow-machine drift hits both
# labels alike, and let benchjson keep the best ns/op per label.
go build -o "$obsdir/benchjson" ./cmd/benchjson
go test -run NONE -c -o "$obsdir/netsim.test" ./internal/netsim/
for pass in 1 2 3; do
  (cd internal/netsim && "$obsdir/netsim.test" -test.run NONE \
    -test.bench 'BenchmarkInjectSaturated$' -test.benchtime 20000x -test.count 2) \
    >>"$obsdir/off.txt"
  (cd internal/netsim && "$obsdir/netsim.test" -test.run NONE \
    -test.bench 'BenchmarkInjectSaturated$' -test.benchtime 20000x -test.count 2 -benchobs) \
    >>"$obsdir/on.txt"
done
"$obsdir/benchjson" -label obs-off -out "$obsdir/ledger.json" <"$obsdir/off.txt"
"$obsdir/benchjson" -label obs-on -out "$obsdir/ledger.json" <"$obsdir/on.txt"
"$obsdir/benchjson" compare -out "$obsdir/ledger.json" obs-off obs-on

echo "== active engine gate (StepSaturated + StepSaturatedFull, dense vs active, 5% budget)"
# Saturation is the active-set engine's worst case: every source is
# backlogged, so the incremental occupancy tracking buys nothing and
# must at least not lose. Slot-level, injection-free benchmarks only —
# on a shared host the CI-sized sweep's wall clock and the injection
# path's RNG/allocation jitter both drift past the budget between
# identical configs, so those live in the ledger, not a gate. The dense
# reference engine is test-only: the prebuilt netsim test binary's
# -benchdense flag selects it. Same same-machine A/B shape as the obs
# gate above, reusing that binary. StepSaturatedFull runs long
# (100000x, count 3) so each measurement averages across host-load
# drift and the kept minimum — nine runs per label, interleaved — sits
# at the genuine floor rather than whichever label drew the quieter
# minute.
for pass in 1 2 3; do
  (cd internal/netsim && "$obsdir/netsim.test" -test.run NONE \
    -test.bench 'BenchmarkStepSaturated$' -test.benchtime 20000x -test.count 2 -benchdense) \
    >>"$obsdir/dense.txt"
  (cd internal/netsim && "$obsdir/netsim.test" -test.run NONE \
    -test.bench 'BenchmarkStepSaturatedFull$' -test.benchtime 100000x -test.count 3 -benchdense) \
    >>"$obsdir/dense.txt"
  (cd internal/netsim && "$obsdir/netsim.test" -test.run NONE \
    -test.bench 'BenchmarkStepSaturated$' -test.benchtime 20000x -test.count 2) \
    >>"$obsdir/active.txt"
  (cd internal/netsim && "$obsdir/netsim.test" -test.run NONE \
    -test.bench 'BenchmarkStepSaturatedFull$' -test.benchtime 100000x -test.count 3) \
    >>"$obsdir/active.txt"
done
"$obsdir/benchjson" -label engine-dense -out "$obsdir/engine.json" <"$obsdir/dense.txt"
"$obsdir/benchjson" -label engine-active -out "$obsdir/engine.json" <"$obsdir/active.txt"
"$obsdir/benchjson" compare -out "$obsdir/engine.json" engine-dense engine-active

echo "== ci.sh: all checks passed"
