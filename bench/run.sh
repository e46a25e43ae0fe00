#!/usr/bin/env bash
# Builds the benchmark driver from source and runs it with bench/ as the
# working directory, passing every argument through. Everything the build
# leaves behind — the binary and Go's build and module caches — stays in
# .bench_build/ at the root of the checkout, and everything a run leaves
# behind in bench/out/; both are ignored by git.
set -euo pipefail
cd "$(dirname "$0")"
build="$(cd .. && pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -o "$build/bench" .
exec "$build/bench" "$@"
