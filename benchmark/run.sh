#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given (BENCHMARK.json's "command"). The Go build cache, the
# binary and the traced run's spans all stay inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local XDG_CONFIG_HOME="$build/config"
(cd "$here" && go build -o "$build/dscs-benchmark" .)
cd "$root"
exec "$build/dscs-benchmark" -out "$here/out" "$@"
