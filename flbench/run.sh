#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#   bash flbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root. Everything it builds or writes stays
# under .bench_build/ there.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off
go -C "$root/flbench" build -o "$out/flbench" .
exec "$out/flbench" --workdir "$out" "$@"
