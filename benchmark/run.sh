#!/usr/bin/env bash
# Entry point of the benchmark (BENCHMARK.json "command"): builds the
# benchmark from source inside the checkout and runs it with the
# arguments given. Run from the repository root:
#
#   bash benchmark/run.sh --workload stat_hot --seed 1 --seconds 15 --trace 0
#   bash benchmark/run.sh -seed 1 -out run.json        # everything, once
#   bash benchmark/run.sh -compare A.json B.json
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
# Keep the Go toolchain's caches, temp files and counters in the checkout.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOTOOLCHAIN=local GOENV=off

go -C benchmark build -buildvcs=false -o "$out/mantlebench" .
exec "$out/mantlebench" -workdir "$out" "$@"
