#!/usr/bin/env bash
# bench.sh runs the netsim-heavy benchmarks and records ns/op,
# allocs/op and throughput metrics into the BENCH_netsim.json ledger
# via cmd/benchjson, so each PR commits before/after evidence for the
# simulator hot path (see ROADMAP.md's bench trajectory).
#
#   ./scripts/bench.sh -label after-pr2      # full run, updates BENCH_netsim.json
#   ./scripts/bench.sh -quick                # CI smoke: tiny run into a temp file
#
# Full mode runs BenchmarkFigure2fSimulated (the end-to-end saturated
# 64-node sweep, -count 3, best kept), BenchmarkFig2fSweep (the paper's
# full default Figure 2(f) sweep through the bounded-parallel sweep
# engine — the headline sweep wall-clock) and BenchmarkQSweep, plus the
# netsim micro-benchmarks and the fluid solver at N=128 and N=512.
# Everything runs -count 3 with the lowest
# ns/op kept, so a single noisy pass can't masquerade as a regression.
# Quick mode only proves the harness works — benchmarks build, run, and
# the JSON emitter parses them — without thresholds and without
# touching the committed ledger.
set -euo pipefail
cd "$(dirname "$0")/.."

label=""
quick=0
out="BENCH_netsim.json"
while [ $# -gt 0 ]; do
  case "$1" in
    -quick) quick=1 ;;
    -label) label="$2"; shift ;;
    -out) out="$2"; shift ;;
    *) echo "usage: bench.sh [-quick] [-label NAME] [-out FILE]" >&2; exit 2 ;;
  esac
  shift
done

if [ "$quick" = 1 ]; then
  tmp="$(mktemp)"
  trap 'rm -f "$tmp"' EXIT
  {
    go test -run NONE -bench 'BenchmarkStepSaturated|BenchmarkStepChurn|BenchmarkInjectSaturated' \
      -benchtime 200x -benchmem ./internal/netsim/
    go test -run NONE -bench 'BenchmarkOpenLoopSparse$|BenchmarkLargeN$' \
      -benchtime 1x -benchmem ./internal/netsim/
    go test -run NONE -bench 'BenchmarkSolveSORN128$' -benchtime 1x -benchmem ./internal/fluid/
  } | go run ./cmd/benchjson -label quick-smoke -out "$tmp"
  echo "bench.sh -quick: harness OK"
  exit 0
fi

if [ -z "$label" ]; then
  echo "bench.sh: -label is required for a recorded run" >&2
  exit 2
fi

# Each run entry records its parallelism context: the GOMAXPROCS in
# force and the simulator worker setting ("auto" = one shard per CPU,
# the netsim default). Wall-clock entries are only comparable between
# runs with the same context.
gomaxprocs="${GOMAXPROCS:-$(nproc)}"
workers="${NETSIM_WORKERS:-auto}"

{
  go test -run NONE -bench 'BenchmarkFigure2fSimulated$' -benchtime 1x -count 3 -benchmem .
  go test -run NONE -bench 'BenchmarkFig2fSweep$|BenchmarkQSweep$' -benchtime 1x -count 3 -benchmem .
  go test -run NONE -bench 'BenchmarkStepSaturated|BenchmarkStepChurn|BenchmarkInjectSaturated' -count 3 -benchmem ./internal/netsim/
  go test -run NONE -bench 'BenchmarkOpenLoopSparse$|BenchmarkLargeN$' -benchtime 5x -count 3 -benchmem ./internal/netsim/
  go test -run NONE -bench 'BenchmarkSolveSORN128$|BenchmarkSolveSORN512$' -benchtime 3x -count 3 -benchmem ./internal/fluid/
} | tee /dev/stderr | go run ./cmd/benchjson -label "$label" -out "$out" \
    -gomaxprocs "$gomaxprocs" -workers "$workers"
