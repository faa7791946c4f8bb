#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run from the
# repository root:
#
#   bash e2ebench/run.sh --workload e7-grid --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the current directory: the Go build cache and temporary files, the
# binary, scratch stores and traced spans.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export TMPDIR="$build/tmp" GOTMPDIR="$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
# Environment defaults the library would otherwise pick up.
unset REPRO_BATCH REPRO_NETSTORE REPRO_FRONTIER REPRO_STEAL
(cd "$root/e2ebench" && go build -o "$build/e2ebench" .)
exec "$build/e2ebench" --build "$build/e2ebench-run" "$@"
