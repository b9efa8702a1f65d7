#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 20 --trace 0
#
# The Go build cache, module cache and binary live in .bench_build/ under
# the current directory, so the run writes nothing outside it.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local
go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
