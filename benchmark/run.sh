#!/usr/bin/env bash
# Builds the benchmark from source into <checkout>/.bench_build and runs
# it from the checkout root. Every file the Go toolchain writes (build
# cache, temp dirs, telemetry) is kept inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off
go build -C "$here" -o "$build/dvbench" .
cd "$root"
exec "$build/dvbench" "$@"
