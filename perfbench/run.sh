#!/usr/bin/env bash
# Builds the benchmark and pluralityd from source, then runs the benchmark.
# Run from the repository root:
#
#	bash perfbench/run.sh --workload leader-1m --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# working directory (Go build cache included).
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)
go build -o "$build/bin/pluralityd" ./cmd/pluralityd
exec "$build/bin/perfbench" -daemon "$build/bin/pluralityd" -out "$build/traces" "$@"
