#!/usr/bin/env bash
# The benchmark's command (see BENCHMARK.json): builds the benchmark program
# from the checkout's source into .bench_build/ and runs it with the driver's
# arguments. Everything the build writes (binary, Go build cache, temporary
# files, the go command's telemetry counters) stays inside the checkout.
#
#   bash benchmark/run.sh --workload tpcb_wire --seed 1 --seconds 20 --trace 0
set -euo pipefail

if [ ! -f go.mod ] || [ ! -f benchmark/main.go ]; then
	echo "benchmark/run.sh: run from the root of a checkout of the repository" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
