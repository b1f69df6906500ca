#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload pb-write --seed 1 --seconds 10 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build/ (or
# $CARGO_TARGET_DIR when set) inside the checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off GOTELEMETRY=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out/perfbench-run" "$@"
