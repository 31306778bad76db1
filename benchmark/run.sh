#!/usr/bin/env bash
# Builds fgbench from source and runs it from the root of the checkout.
# The build cache and the binary stay inside the checkout, under
# .bench_build/, so a run reads and writes nothing outside it.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="${GOCACHE:-$build/gocache}" GOTOOLCHAIN=local GOPROXY=off
# Stamping the binary fails outright in a checkout git refuses to read, so
# the commit travels in the environment instead.
FGBENCH_COMMIT="$(git rev-parse HEAD 2>/dev/null || true)"
export FGBENCH_COMMIT
go build -C benchmark -buildvcs=false -o "$build/fgbench" .
exec "$build/fgbench" "$@"
