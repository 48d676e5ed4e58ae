#!/usr/bin/env bash
# Builds pmwbench from this checkout and runs it with the given arguments.
# Run from the repository root, e.g.
#
#   bash bench/run.sh --workload miss_small --seed 1 --seconds 10 --trace 0
#
# Everything the Go toolchain and the benchmark write stays inside the
# checkout: build cache and binaries in .bench_build/, results in bench/out/.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOENV=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

(cd bench && go build -o "$build/pmwbench" ./pmwbench)
exec "$build/pmwbench" "$@"
