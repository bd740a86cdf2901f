#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it.
#
#   bash bench/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh --compare a.log b.log
#
# Run it from the repository root. Every build artifact (binary, Go build
# cache) stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -C "$root/bench" -o "$out/wsnbench" .
exec "$out/wsnbench" "$@"
