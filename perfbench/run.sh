#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with the
# given arguments. Run it from the root of the repository:
#
#   bash perfbench/run.sh --workload grid-neural --seed 1 --seconds 20 --trace 0
#
# Every file the build and the run write lands under the build directory
# ($CARGO_TARGET_DIR when set, else .bench_build), so the toolchain caches and
# the benchmark's scratch files stay inside the checkout.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config" "$build/work"

export GOCACHE=$build/gocache GOPATH=$build/gopath GOMODCACHE=$build/gopath/pkg/mod
export TMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off

# A checkout without the repository's sources cannot build; go build then
# fails and the script exits non-zero before printing any result.
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" --workdir "$build/work" "$@"
