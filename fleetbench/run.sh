#!/usr/bin/env bash
# Builds the fleet benchmark from the checkout's sources and runs it.
# Run from the repository root; arguments pass through, e.g.
#   bash fleetbench/run.sh --workload steady-fleet --seed 1 --seconds 20 --trace 0
# Build products, the Go build cache, temporary files, state dirs and
# span files all stay under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOTELEMETRY=off
(cd "$root/fleetbench" && go build -o "$out/fleetbench" .) >&2
exec "$out/fleetbench" --out "$out/fleetbench-run" "$@"
