#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run it from the repository root:
#
#   bash _perfbench/run.sh --workload fig6-accept --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and all scratch files stay under
# .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" # the go command's telemetry counters
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
(cd "$root/_perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
