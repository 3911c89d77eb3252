#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it. Run from the root
# of the repository:
#
#   bash repobench/run.sh --workload node_zipf --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout (Go build cache, binary, stores, traces).
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/repobench" && go build -o "$build/repobench" .)
exec "$build/repobench" --workdir "$build/work" "$@"
