#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument
# through. Run it from the root of a torusx checkout:
#
#   bash benchmark/run.sh --workload replay-16x16 --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays in .bench_build/.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" GOENV=off \
	GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off
(cd "$root/benchmark" && go build -o "$build/torusx-benchmark" .)
exec "$build/torusx-benchmark" "$@"
