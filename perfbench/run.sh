#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload sweep-cold --seed 1 --seconds 15 --trace 0
#
# The build cache, the binary and every scratch file stay under
# .bench_build/ in the working directory. The build fails, and so does
# this script, outside a checkout of the whole repository.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/go-cache" "$out/go-tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
