#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's sources and runs
# it with the given arguments, e.g.
#
#   bash e2ebench/run.sh --workload bc-study --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the checkout. Everything the Go toolchain
# writes (build cache, temporary files, binary, telemetry) stays under
# .bench_build/.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOFLAGS=

(cd "$root/e2ebench" && go build -o "$build/e2ebench" .)
exec "$build/e2ebench" "$@"
