#!/usr/bin/env bash
# Builds the fleet daemons (harvestd, harvestrouter) and the benchmark from
# the checkout it runs in, then runs the benchmark with the given arguments.
# Run it from the repository root:
#
#   bash harvestbench/run.sh --workload lease-churn --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the checkout,
# the Go build cache included. Build output goes to stderr, so the last line
# of stdout is the benchmark's JSON result.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
# XDG_CONFIG_HOME keeps the go command's env file and telemetry in here too.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go build -o "$build/bin/" ./cmd/harvestd ./cmd/harvestrouter >&2
(cd harvestbench && go build -o "$build/bin/harvestbench" .) >&2
exec "$build/bin/harvestbench" "$@"
