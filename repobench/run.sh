#!/usr/bin/env bash
# Builds repobench from source and runs it with the given arguments:
#
#   bash repobench/run.sh --workload paper-63 --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The build cache and the binary go to
# .bench_build/ under the current directory, so nothing outside it is
# written; the Go toolchain is the only tool needed.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off GOTELEMETRY=off

go -C "$root/repobench" build -o "$out/repobench" .
exec "$out/repobench" "$@"
