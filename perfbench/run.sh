#!/usr/bin/env bash
# Builds perfbench from the checkout it is run in and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload wire-sessions --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the repository. The Go build cache, the binary
# and every file a run writes stay under .bench_build/ in that root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
