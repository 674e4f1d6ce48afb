#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it with the
# given arguments. Run it from the root of the repository:
#
#   bash perfbench/run.sh --workload read_fit --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binary, WAL
# directories) stays under .bench_build/ in the current directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
