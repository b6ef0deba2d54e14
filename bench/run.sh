#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build writes — Go's build cache included — stays under
# .bench_build/ in the checkout, so a run touches nothing outside it and
# needs no $HOME.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOENV=off
go build -C "$root/bench" -o "$build/rubic-bench" . >&2
cd "$root"
exec "$build/rubic-bench" "$@"
