#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash benchmark/run.sh --workload serve-mix --seed 1 --seconds 20 --trace 0
#
# Everything the build leaves behind (binary, Go's build cache, its
# temporary, module and config directories) stays under .bench_build at
# the root of the checkout; the traced run's span dump goes to
# benchmark/out.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local CGO_ENABLED=0
cd "$here"
go build -o "$build/benchmark" .
exec "$build/benchmark" "$@"
