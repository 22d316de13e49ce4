#!/usr/bin/env bash
# Builds haste-bench from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash cmd/haste-bench/run.sh                       # every workload
#   bash cmd/haste-bench/run.sh --workload paper-c4 --seed 1 --seconds 20 --trace 0
#   bash cmd/haste-bench/run.sh compare base*.json -- new*.json
#
# The build cache, temporary files, the toolchain's config and telemetry
# directory, and the binary all live under .bench_build/ in the current
# directory, so nothing is written outside it.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$root/cmd/haste-bench" && go build -o "$out/haste-bench" .)
exec "$out/haste-bench" "$@"
