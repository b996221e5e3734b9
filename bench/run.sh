#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags. Every
# file the build and the run write stays inside the checkout: the Go build
# cache and the binary under .bench_build/, traced-run artifacts under
# bench/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config" PPROF_TMPDIR="$build/pprof"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -C "$here" -o "$build/bench" .
exec "$build/bench" -outdir "$here/out" "$@"
