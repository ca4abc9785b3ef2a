#!/usr/bin/env bash
# Builds perfbench from this checkout's source and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload axis-20k-vafile --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and span files stay under .bench_build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOFLAGS= GOTOOLCHAIN=local
go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
