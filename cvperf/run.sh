#!/usr/bin/env bash
# Builds the cvperf benchmark from source and runs it. Run from the
# repository root:
#
#   bash cvperf/run.sh --workload dashboard --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the working directory (Go build cache included).
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
# XDG_CONFIG_HOME keeps the go command's config and telemetry files in
# there as well
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0

# the benchmark module imports the repository's module from the parent
# directory; outside a full checkout this build fails and nothing runs
go -C "$root/cvperf" build -o "$out/cvperf" .
exec "$out/cvperf" "$@"
