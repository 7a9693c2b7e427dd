#!/usr/bin/env bash
# Builds the serving benchmark from the checkout it is run in, then runs
# it with the given arguments (--workload, --seed, --seconds, --trace).
# Run from the repository root:
#
#   bash perfbench/run.sh --workload analyze-batch --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache, session-store temp dirs and span
# files all stay under .bench_build/ in the checkout.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C perfbench build -buildvcs=false -o "$out/perfbench" .
exec "$out/perfbench" --tmp "$out" "$@"
