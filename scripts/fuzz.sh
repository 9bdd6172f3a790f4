#!/usr/bin/env bash
# fuzz.sh runs two budgeted fuzzing passes on top of the fixed corpora
# that ci.sh (and plain `go test ./...`) replays:
#
#   1. Go native fuzzing, 30s per target: FuzzParseSpec in
#      internal/faultplan (fault-plan specs) and internal/oracle (oracle
#      reproducer specs), FuzzScheduleValidate in internal/matching
#      (schedules built from raw bytes), FuzzTable1Flags in cmd/repro
#      (repro -exp table1 with fuzzed -n, -uplinks, -slot, -prop and -x:
#      an error or a finite table, never a panic), FuzzFig2fFlags in
#      cmd/repro (repro -exp fig2f -sim=false with fuzzed -n, -nc, -step
#      and -cap, at most 256 nodes and 21 grid points: an error or a
#      table whose fluid θ stays within the hop-count capacity bound,
#      never a panic), FuzzPoissonWindow in
#      internal/workload (flow windows over fuzzed locality workloads
#      must equal the reference append-and-sort generator flow for flow),
#      FuzzFIFO in internal/netsim (push, pop, purge and drop sequences on
#      the chunked VOQs of one cell pool against a slice-of-slices
#      reference, with every chunk either held by one queue or free)
#      FuzzSornsimFlags in cmd/sornsim (sornsim's three simulation
#      modes on 16 nodes with fuzzed flags and specs: an error or a
#      report with no NaN, infinity or negative number, never a panic)
#      FuzzSolveMatchesPaths in internal/fluid (fluid solves of
#      random instances of every router over at most 64 nodes: every
#      load and Result field bit-identical to the Paths reference),
#      FuzzSampleMatchesSlice in internal/stats (interleaved Add,
#      Percentile, DrainTo and value copies on the block-storage
#      Sample: every query bit-identical to the flat-slice reference)
#      and FuzzAblationFlags in cmd/repro (every ablation entry with
#      fuzzed -n, -nc and -seed, at most 32 nodes: an error or a table
#      with rows, never a panic).
#      A failing input is written under the package's testdata/fuzz/ and
#      replays as an ordinary test from then on. For a longer pass, run
#      the same go test -fuzz command with a larger -fuzztime.
#   2. The differential/metamorphic scenario fuzzer (internal/oracle).
#
#   ./scripts/fuzz.sh                 # default budget: 256 scenarios or 300s
#   ./scripts/fuzz.sh 1024 1800       # up to 1024 scenarios, 30-minute cap
#   FUZZ_SEED=42 ./scripts/fuzz.sh    # pin the scenario stream
#
# Each random scenario cross-checks the closed-form model, the exact
# rational solver, the float fluid solver, and the packet simulator,
# plus the metamorphic relations (relabeling, demand scaling, clique
# symmetry, zero-window fail→repair, Workers 1-vs-k bit-identity).
# Every scenario derives from its own split RNG stream, so a failure
# here exits nonzero and prints one-line reproducer specs that replay
# standalone:
#
#   go run ./cmd/sornsim -selfcheck -spec "design=... seed=..."
#
# The default seed varies per run (wall clock) so repeated local runs
# explore new scenarios; CI should pin FUZZ_SEED for reproducible logs.
set -euo pipefail
cd "$(dirname "$0")/.."

iters="${1:-256}"
seconds="${2:-300}"
seed="${FUZZ_SEED:-$(date +%s)}"

for pkg in ./internal/faultplan ./internal/oracle; do
  echo "== go fuzz: FuzzParseSpec in $pkg for 30s"
  go test "$pkg" -run '^$' -fuzz '^FuzzParseSpec$' -fuzztime 30s -parallel 1
done
echo "== go fuzz: FuzzScheduleValidate in ./internal/matching for 30s"
go test ./internal/matching -run '^$' -fuzz '^FuzzScheduleValidate$' -fuzztime 30s -parallel 1
echo "== go fuzz: FuzzTable1Flags in ./cmd/repro for 30s"
go test ./cmd/repro -run '^$' -fuzz '^FuzzTable1Flags$' -fuzztime 30s -parallel 1
echo "== go fuzz: FuzzFig2fFlags in ./cmd/repro for 30s"
go test ./cmd/repro -run '^$' -fuzz '^FuzzFig2fFlags$' -fuzztime 30s -parallel 1
echo "== go fuzz: FuzzPoissonWindow in ./internal/workload for 30s"
go test ./internal/workload -run '^$' -fuzz '^FuzzPoissonWindow$' -fuzztime 30s -parallel 1
echo "== go fuzz: FuzzFIFO in ./internal/netsim for 30s"
go test ./internal/netsim -run '^$' -fuzz '^FuzzFIFO$' -fuzztime 30s -parallel 1
echo "== go fuzz: FuzzSornsimFlags in ./cmd/sornsim for 30s"
go test ./cmd/sornsim -run '^$' -fuzz '^FuzzSornsimFlags$' -fuzztime 30s -parallel 1
echo "== go fuzz: FuzzSolveMatchesPaths in ./internal/fluid for 30s"
go test ./internal/fluid -run '^$' -fuzz '^FuzzSolveMatchesPaths$' -fuzztime 30s -parallel 1
echo "== go fuzz: FuzzSampleMatchesSlice in ./internal/stats for 30s"
go test ./internal/stats -run '^$' -fuzz '^FuzzSampleMatchesSlice$' -fuzztime 30s -parallel 1
echo "== go fuzz: FuzzAblationFlags in ./cmd/repro for 30s"
go test ./cmd/repro -run '^$' -fuzz '^FuzzAblationFlags$' -fuzztime 30s -parallel 1

echo "== oracle fuzz: up to $iters scenarios, ${seconds}s budget, seed $seed"
go run ./cmd/sornsim -selfcheck -fuzziters "$iters" -fuzzseconds "$seconds" -seed "$seed"
