#!/usr/bin/env bash
# Builds the benchmark from source in the current checkout and runs it with
# the given arguments, e.g.
#   bash benchmark/run.sh --workload replay-read --seed 1 --seconds 20 --trace 0
# Run from the repository root. Build outputs, the Go build cache and the go
# command's own state stay under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
# The go command keeps its settings and telemetry under the user config
# directory; point it into the checkout too.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/benchmark" && go build -o "$out/cosmodel-benchmark" .)
exec "$out/cosmodel-benchmark" "$@"
