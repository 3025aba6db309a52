#!/usr/bin/env bash
# Builds remi-serve and the benchmark from the sources of the checkout it is
# run in, then runs the benchmark with the given arguments. Run it from the
# repository root:
#
#   bash remibench/run.sh --workload interactive --seed 1 --seconds 10 --trace 0
#
# Every build product, the Go build cache and the benchmark's scratch files
# stay under .bench_build/ in the current directory.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/bin"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd remibench && go build -o "$build/bin/" . github.com/remi-kb/remi/cmd/remi-serve) >&2
exec "$build/bin/remibench" -serve "$build/bin/remi-serve" -work "$build" "$@"
