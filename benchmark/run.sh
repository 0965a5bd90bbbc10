#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the harness from source and
# runs it. Every build artefact, Go cache and temp file stays under
# .bench_build/ at the root of the checkout, so a run reads and writes
# nothing outside it. Arguments pass through to the harness unchanged.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
cd "$here"
go build -o "$build/bin/benchmark" .
exec "$build/bin/benchmark" "$@"
