#!/usr/bin/env bash
# Builds the benchmark driver from source and runs it with the given
# arguments, from the root of a checkout:
#
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR, default .bench_build) in the current directory.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=

(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -workdir "$build" "$@"
