#!/usr/bin/env bash
# Builds graspd and the perfbench program from this checkout's sources, then
# runs one benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload paper-figures --seed 1 --seconds 30 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
go build -o "$out/bin/graspd" ./cmd/graspd
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -graspd "$out/bin/graspd" "$@"
