#!/usr/bin/env bash
# run.sh — build the harness and run it; this is BENCHMARK.json's command.
# Everything the build writes (Go build cache, the harness and lbd binaries)
# goes under <checkout>/.bench_build, so a run reads and writes only inside
# its checkout. Arguments are passed through to the harness (see README.md).
set -euo pipefail
bench=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$bench")
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOWORK=off
(cd "$bench" && go build -buildvcs=false -o "$build/harness" .)
exec "$build/harness" -root "$root" "$@"
