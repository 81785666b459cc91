#!/bin/bash
# Entry point named by BENCHMARK.json: builds the bench from the sources of
# the checkout it is started in, then runs it with the driver's arguments.
# Everything the build writes stays inside the checkout, under .bench_build.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal/pgo" ]; then
	echo "bench/run.sh: start it from the root of a checkout of the repository (no go.mod and internal/ here)" >&2
	exit 1
fi
mkdir -p "$root/.bench_build"
export GOCACHE="$root/.bench_build/gocache"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local
go build -o "$root/.bench_build/bench" ./bench
exec "$root/.bench_build/bench" "$@"
