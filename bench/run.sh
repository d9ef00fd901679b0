#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given flags.  Run it from the repository root:
#
#   bash bench/run.sh -workload edit -seed 1 -seconds 20 -trace 0
#
# The build cache, the binary and everything a run writes stay under
# .bench_build/ in the checkout, and the build never touches the network.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
go build -C bench -o "$build/eelbench" .
exec "$build/eelbench" "$@"
