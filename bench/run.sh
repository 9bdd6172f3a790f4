#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash bench/run.sh --workload fig2f-sat --seed 42 --seconds 20 --trace 0
#   bash bench/run.sh                       # every workload, untraced and traced
#   bash bench/run.sh compare A.jsonl B.jsonl
#
# Everything the toolchain writes (build cache, temp files, the binary)
# stays under $CARGO_TARGET_DIR, default .bench_build/ at the checkout
# root, and no module download is ever attempted.
set -euo pipefail
cd "$(dirname "$0")/.."
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$PWD/$out" ;; esac
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOWORK=off \
	GOTOOLCHAIN=local GOPROXY=off
go -C bench build -o "$out/sornbench" .
exec "$out/sornbench" "$@"
