#!/usr/bin/env bash
# Builds the perfbench binary from the sources in this checkout and runs
# it with the given arguments. Run it from the root of the checkout:
#
#   bash perfbench/run.sh --workload wan-k1 --seed 10 --seconds 20 --trace 0
#
# Everything the build and the run write stays inside the checkout, under
# $CARGO_TARGET_DIR (default .bench_build): the Go build cache, the binary,
# and the result records and span files.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/home"

export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache GOPATH=$build/gopath
export HOME=$build/home XDG_CONFIG_HOME=$build/home/.config
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod GOPROXY=off

(cd "$here" && go build -o "$build/perfbench" .)
export PERFBENCH_OUT=$build/perfbench-results
exec "$build/perfbench" "$@"
