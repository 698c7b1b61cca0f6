#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with
# the given arguments. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload splay-temporal-k4 --seed 1 --seconds 10 --trace 0
#
# Build outputs (the Go build cache and the binary) stay inside the
# checkout, under .bench_build, and the Go tool is kept off the network.
set -euo pipefail
root=$(pwd)
out="$root/${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTMPDIR="$out" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOPROXY=off
(cd perfbench && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
