#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument
# through (--workload NAME --seed N --seconds S --trace 0|1). Run it from
# the repository root:
#
#	bash perfbench/run.sh --workload sma_answer --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and the databases a run creates all
# live under .bench_build in the current directory.
set -euo pipefail
src=$(cd "$(dirname "$0")" && pwd)
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
(cd "$src" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
