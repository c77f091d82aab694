#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping every byte the
# build and the run write inside the checkout (.bench_build/).
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod"
export GOTOOLCHAIN=local GOPROXY=off
# -buildvcs=false: a checkout nested in a foreign git repository must not fail the build.
(cd "$here" && go build -buildvcs=false -o "$build/sintra-benchmark" .)
exec "$build/sintra-benchmark" -tmp "$build/tmp" "$@"
