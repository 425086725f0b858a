#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run it from
# the root of a checkout:
#
#   bash perfbench/run.sh --workload paper-paced --seed 1 --seconds 20 --trace 0
#
# Every build product (binary, Go build cache, temporary files) and every
# file a run writes stays under .bench_build/ in the checkout.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off

go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
