#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given. Everything the Go toolchain writes (build cache,
# temporary files, the binary) stays under .bench_build in the checkout.
# Run from the root of the repository:
#
#   bash bench/run.sh --workload read_closed --seed 1 --seconds 20 --trace 0
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
