#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root,
# passing every argument through:
#
#   bash bench/run.sh --workload eval-cold --seed 1 --seconds 25 --trace 0
#
# Everything the build and the runs write stays in .bench_build/ at the
# root: the Go build cache, the binary and the runs' scratch directories.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOTMPDIR="$out" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C "$root/bench" build -o "$out/lnabench" .

cd "$root"
exec "$out/lnabench" "$@"
