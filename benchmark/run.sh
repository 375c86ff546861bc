#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it, passing
# every argument through:
#
#   bash benchmark/run.sh --workload uniform-saturated --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The benchmark is a Go module of its
# own that replaces `repro` with the checkout root. The Go build cache,
# temporary files and the benchmark's own working files all stay under
# .bench_build/, so a run writes nothing outside the checkout; GOWORK and
# GOFLAGS are cleared so a caller's workspace or flags cannot change what
# is built, and GOTOOLCHAIN=local keeps the build offline.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOMODCACHE="$build/gomodcache" XDG_CONFIG_HOME="$build/config"
export GOWORK=off GOTOOLCHAIN=local GOFLAGS=
go -C "$root/benchmark" build -o "$build/stcc-benchmark" .
exec "$build/stcc-benchmark" -out "$build" "$@"
