#!/usr/bin/env bash
# Builds the joinserve benchmark from the checkout it is run in, then runs it
# with the given arguments:
#
#   bash joinbench/run.sh --workload warm-crowd --seed 1 --seconds 10 --trace 0
#   bash joinbench/run.sh --workload churn --steady 10     # steadiness check
#
# Run it from the repository root. Everything the build and the run leave
# behind (Go build cache, binary, temp stores, traces) goes under
# .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/config" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
export TMPDIR="$build/tmp" GOTMPDIR="$build/tmp"

(cd "$root/joinbench" && go build -o "$build/joinbench" .) >&2
exec "$build/joinbench" "$@"
