#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it; every
# argument is passed on. Run it from the repository root:
#
#   bash perfbench/run.sh --workload fire-local --seed 1 --seconds 15 --trace 0
#
# Go's build cache, module cache and config stay under .bench_build/ in the
# checkout; results and spans are written to .bench_out/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
