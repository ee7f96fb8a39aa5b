#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the root of the repository:
#
#   bash perfbench/run.sh --workload serve-light --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build: the
# Go build cache, the binary, the daemons' state directories and the
# trace files. Outside a full checkout (no ../go.mod for the replace
# directive) the build fails and the script exits non-zero.
set -euo pipefail

root=$(pwd)
work="$root/.bench_build"
mkdir -p "$work/gocache" "$work/gotmp" "$work/gopath" "$work/xdg-cache" "$work/xdg-config"
export GOCACHE="$work/gocache" GOTMPDIR="$work/gotmp" GOPATH="$work/gopath"
export XDG_CACHE_HOME="$work/xdg-cache" XDG_CONFIG_HOME="$work/xdg-config"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off GOPROXY=off CGO_ENABLED=0

go -C "$root/perfbench" build -o "$work/bin/perfbench" .
exec "$work/bin/perfbench" "$@"
