#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and
# runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload suite-cold --seed 1 --seconds 15 --trace 0
#
# Build products and the Go build cache stay under .bench_build/ at the
# checkout root, so a run reads and writes nothing outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
go -C "$here" build -o "$out/perfbench" .
cd "$root"
exec "$out/perfbench" "$@"
