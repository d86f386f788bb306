#!/usr/bin/env bash
# Builds the end-to-end benchmark and cmd/avccserve from source, then runs
# the benchmark with the given arguments. Run it from the repository root:
#
#   bash e2ebench/run.sh --workload serve-batched --seed 1 --seconds 40 --trace 0
#   bash e2ebench/run.sh --smoke
#
# Everything it builds or writes stays under .bench_build/ in the current
# directory, and the Go toolchain is kept offline and local.
set -euo pipefail

out="$PWD/.bench_build/e2ebench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOENV=off GOWORK=off GOTELEMETRY=off

go build -o "$out/avccserve" ./cmd/avccserve
(cd e2ebench && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" -avccserve "$out/avccserve" -spans "$out" "$@"
