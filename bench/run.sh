#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it from the checkout root
# with the arguments given. BENCHMARK.json names this script. Everything the
# Go toolchain writes — build cache, module cache, its own state under HOME —
# is pointed into .bench_build/, so nothing outside the checkout is touched.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f go.mod ] || [ ! -d internal/experiments ]; then
	echo "bench: the simulator's sources are not beside bench/; nothing to measure" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/home"
export HOME="$build/home" GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
go build -C bench -o "$build/bench" .
exec "$build/bench" "$@"
