#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the repository root
# and runs it from there with the arguments given. Everything the Go
# toolchain writes (build cache, module cache, telemetry) stays inside
# .bench_build/, so a run touches nothing outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOFLAGS= GOTOOLCHAIN=local GOENV=off GOWORK=off XDG_CONFIG_HOME="$build/config"
(cd "$here" && go build -o "$build/benchmark" .)
cd "$root"
exec "$build/benchmark" "$@"
