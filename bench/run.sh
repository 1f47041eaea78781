#!/usr/bin/env bash
# Builds the benchmark harness and runs it from the repository root.
#
#   bash bench/run.sh --workload matrix --seed 1 --seconds 15 --trace 0
#   bash bench/run.sh                      # every workload, untraced and traced
#   bash bench/run.sh compare <dirA> <dirB>
#
# Everything the build and the run write stays under .bench_build/ in the
# repository: the Go build cache and its configuration, the binaries,
# server scratch directories and the result files.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
go -C bench build -o "$build/bench" .
exec "$build/bench" "$@"
