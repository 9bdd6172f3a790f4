#!/usr/bin/env bash
# bench.sh runs the netsim-heavy benchmarks and records ns/op,
# allocs/op and throughput metrics into the BENCH_netsim.json ledger
# via cmd/benchjson, so each PR commits before/after evidence for the
# simulator hot path (see ROADMAP.md's bench trajectory).
#
#   ./scripts/bench.sh -label after-pr2          # full run, updates BENCH_netsim.json
#   ./scripts/bench.sh -base main -label pr25    # interleaved pair: pr25-before / pr25-after
#   ./scripts/bench.sh -quick                    # CI smoke: tiny run into a temp file
#
# Full mode runs BenchmarkFigure2fSimulated (the end-to-end saturated
# 64-node sweep), BenchmarkFig2fSweep (the paper's full default Figure
# 2(f) sweep through the bounded-parallel sweep engine — the headline
# sweep wall-clock) and BenchmarkQSweep, plus the netsim
# micro-benchmarks, the fluid solver at N=128 and N=512, cold SORN
# builds (BenchmarkBuildSORN: the N=128 schedule, and the N=512
# schedule with its router) and the two non-simulator layers of the
# open-loop workloads: a steady control epoch (BenchmarkDecideSteady)
# and a 100k-slot flow window (BenchmarkPoissonWindow). The test
# binaries are built once and every benchmark runs in 3 passes with the
# lowest ns/op kept, so a single noisy pass can't masquerade as a
# regression.
#
# -base REV measures a before/after pair on one host in one sitting: it
# checks REV out into a temporary git worktree, builds REV's test
# binaries there and the working tree's here, and runs each benchmark
# on both sides back to back, swapping which side goes first every
# pass. The two sides are recorded as LABEL-before and LABEL-after, so
# host drift during the run lands on both entries instead of showing up
# as a change. Benchmark files (*_bench_test.go) of the working tree are
# copied into the worktree first, so both sides run the same benchmark
# code; they must still compile against REV.
#
# Quick mode only proves the harness works — benchmarks build, run, and
# the JSON emitter parses them — without thresholds and without
# touching the committed ledger.
set -euo pipefail
cd "$(dirname "$0")/.."

label=""
base=""
quick=0
out="BENCH_netsim.json"
while [ $# -gt 0 ]; do
  case "$1" in
    -quick) quick=1 ;;
    -label) label="$2"; shift ;;
    -base) base="$2"; shift ;;
    -out) out="$2"; shift ;;
    *) echo "usage: bench.sh [-quick] [-label NAME] [-base REV] [-out FILE]" >&2; exit 2 ;;
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
    go test -run NONE -bench 'BenchmarkBuildSORN/' -benchtime 1x -benchmem ./internal/schedule/
    go test -run NONE -bench 'BenchmarkPoissonWindow$' -benchtime 1x -benchmem .
  } | go run ./cmd/benchjson -label quick-smoke -out "$tmp"
  echo "bench.sh -quick: harness OK"
  exit 0
fi

if [ -z "$label" ]; then
  echo "bench.sh: -label is required for a recorded run" >&2
  exit 2
fi

# One line per benchmark group: package, -bench pattern, -benchtime
# ("-" for the default).
benches=(
  ". BenchmarkFigure2fSimulated$ 1x"
  ". BenchmarkFig2fSweep$|BenchmarkQSweep$ 1x"
  ". BenchmarkDecideSteady$|BenchmarkPoissonWindow$ -"
  "./internal/netsim BenchmarkStepSaturated|BenchmarkStepChurn|BenchmarkInjectSaturated -"
  "./internal/netsim BenchmarkOpenLoopSparse$|BenchmarkLargeN$ 5x"
  "./internal/fluid BenchmarkSolveSORN128$|BenchmarkSolveSORN512$ 3x"
  "./internal/schedule BenchmarkBuildSORN/ -"
)
passes=3

# Each run entry records its parallelism context: the GOMAXPROCS in
# force and the simulator worker setting ("auto" = one shard per CPU,
# the netsim default). Wall-clock entries are only comparable between
# runs with the same context.
gomaxprocs="${GOMAXPROCS:-$(nproc)}"
workers="${NETSIM_WORKERS:-auto}"

work="$(mktemp -d)"
tree=""
cleanup() {
  if [ -n "$tree" ]; then
    git worktree remove --force "$tree" >/dev/null 2>&1 || true
  fi
  rm -rf "$work"
}
trap cleanup EXIT

# binname PKG prints the test binary name for a package path.
binname() { local p="${1#./}"; p="${p//\//_}"; echo "${p:-root}.test"; }

# build SRC BINDIR compiles every benchmarked package's test binary from
# the tree at SRC.
build() {
  local src="$1" bins="$2" line pkg
  mkdir -p "$bins"
  for line in "${benches[@]}"; do
    read -r pkg _ _ <<<"$line"
    [ -x "$bins/$(binname "$pkg")" ] && continue
    (cd "$src" && go test -c -o "$bins/$(binname "$pkg")" "$pkg")
  done
}

# runone SRC BINDIR LINE runs one benchmark group from its package
# directory (benchmarks may read package-relative files).
runone() {
  local src="$1" bins="$2" pkg pat bt
  read -r pkg pat bt <<<"$3"
  local args=(-test.run NONE -test.bench "$pat" -test.benchmem -test.timeout 30m)
  [ "$bt" != "-" ] && args+=(-test.benchtime "$bt")
  (cd "$src/$pkg" && "$bins/$(binname "$pkg")" "${args[@]}")
}

build "$PWD" "$work/after"
if [ -z "$base" ]; then
  for ((p = 0; p < passes; p++)); do
    for line in "${benches[@]}"; do
      runone "$PWD" "$work/after" "$line"
    done
  done | tee /dev/stderr | go run ./cmd/benchjson -label "$label" -out "$out" \
      -gomaxprocs "$gomaxprocs" -workers "$workers"
  exit 0
fi

tree="$work/base"
git worktree add --detach "$tree" "$base" >/dev/null
git ls-files --cached --others --exclude-standard -- '*_bench_test.go' | while read -r f; do
  mkdir -p "$tree/$(dirname "$f")"
  cp "$f" "$tree/$f"
done
build "$tree" "$work/before"
for ((p = 0; p < passes; p++)); do
  for line in "${benches[@]}"; do
    if ((p % 2 == 0)); then
      runone "$tree" "$work/before" "$line" | tee -a "$work/before.txt" >&2
      runone "$PWD" "$work/after" "$line" | tee -a "$work/after.txt" >&2
    else
      runone "$PWD" "$work/after" "$line" | tee -a "$work/after.txt" >&2
      runone "$tree" "$work/before" "$line" | tee -a "$work/before.txt" >&2
    fi
  done
done
go run ./cmd/benchjson -label "$label-before" -out "$out" \
  -gomaxprocs "$gomaxprocs" -workers "$workers" <"$work/before.txt"
go run ./cmd/benchjson -label "$label-after" -out "$out" \
  -gomaxprocs "$gomaxprocs" -workers "$workers" <"$work/after.txt"
