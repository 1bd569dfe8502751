#!/usr/bin/env bash
# Builds rtrsimd and the benchmark harness from source into .bench_build
# and runs one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload serve-warm --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build (the
# Go build cache too), so the first run in a fresh checkout compiles
# the standard library and takes a few minutes. The last line of
# standard output is the JSON result; see perfbench/NOTES.md.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=mod

go build -o "$out/rtrsimd" ./cmd/rtrsimd
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" --bin "$out" "$@"
