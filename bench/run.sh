#!/usr/bin/env bash
# Entry point of the benchmark (BENCHMARK.json's command): builds the
# bench module and runs it from the root of the checkout. The binary
# and the Go build cache live in .bench_build/ inside the checkout, so
# nothing outside it is read or written; the first run of a checkout
# pays for compiling the standard library.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build=$root/.bench_build
mkdir -p "$build"
export GOCACHE=$build/gocache GOTOOLCHAIN=local GOPROXY=off
go build -C "$root/bench" -o "$build/pario-bench" .
cd "$root"
exec "$build/pario-bench" "$@"
