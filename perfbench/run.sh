#!/usr/bin/env bash
# run.sh builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload gc-write --seed 42 --seconds 10 --trace 0
#
# Everything the build and the run write stays inside the checkout: the
# binary, the Go build cache and the benchmark's scratch files go to
# $CARGO_TARGET_DIR (default .bench_build) at the checkout root.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
out=${CARGO_TARGET_DIR:-$here/../.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)

export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOENV=off GOTELEMETRY=off

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --scratch "$out/scratch" "$@"
