#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it; every argument is
# passed through. All build state (Go build cache, temp dirs, binaries)
# stays under .bench_build/ of the checkout.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOWORK=off
(cd "$here" && go build -o "$build/bin/knncost-benchmark" .)
cd "$root"
exec "$build/bin/knncost-benchmark" "$@"
