#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload kernels-4n|cluster-256n|serve-kv|all \
#       [--seed N] [--seconds S] [--trace 0|1]
#
# Everything the build and the run write stays under .bench_build/ at the
# root of the checkout: the Go build cache, the binary, run records,
# spans and CPU profiles.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/perfbench"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" PPROF_TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly

(cd "$root/perfbench" && go build -o "$build/perfbench/perfbench" .)
cd "$root"
exec "$build/perfbench/perfbench" "$@"
