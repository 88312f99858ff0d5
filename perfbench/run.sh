#!/usr/bin/env bash
# Builds the benchmark and the hoiho CLI from source into .bench_build,
# then runs the benchmark from the repository root with the arguments
# given, e.g.:
#
#   bash perfbench/run.sh --workload lookup-zipf --seed 1 --seconds 10 --trace 0
#
# Every file the build and the run write stays under .bench_build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go build -C "$root/perfbench" -o "$out/bin/perfbench" .
go build -C "$root" -o "$out/bin/hoiho" ./cmd/hoiho
exec "$out/bin/perfbench" -hoiho "$out/bin/hoiho" -workdir "$out/run" "$@"
