#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (build cache included,
# so nothing outside the checkout is written) and runs it with the given
# arguments. Run from the repository root: bash bench/run.sh --workload ...
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/bench/main.go" ] || [ ! -f "$root/BENCHMARK.json" ]; then
	echo "bench/run.sh: run from the root of a full checkout (go.mod, bench/, BENCHMARK.json)" >&2
	exit 2
fi
mkdir -p "$root/.bench_build"
export GOCACHE="$root/.bench_build/gocache" GOTOOLCHAIN=local GOPROXY=off
go build -buildvcs=false -o "$root/.bench_build/autoglobe-bench" ./bench
exec "$root/.bench_build/autoglobe-bench" "$@"
