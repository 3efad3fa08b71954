#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the benchmark from source
# inside the checkout (Go's caches included, so nothing is read or written
# outside it) and runs it with the arguments given:
#
#   bash benchmark/bench.sh --workload NAME --seed N --seconds T --trace 0|1
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/voodoo-benchmark" .)
exec "$build/voodoo-benchmark" -tmp "$build" "$@"
