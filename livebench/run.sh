#!/usr/bin/env bash
# Builds specinferd and the load generator from the checkout in the
# current directory, then runs one benchmark run. Arguments go to the
# load generator, e.g.
#
#   bash livebench/run.sh --workload alpaca-chat --seed 1 --seconds 45 --trace 0
#
# Build outputs, the Go build cache and result files stay under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=

go build -o "$build/bin/specinferd" ./cmd/specinferd
(cd "$here" && go build -o "$build/bin/livebench" .)
exec "$build/bin/livebench" -daemon "$build/bin/specinferd" -out "$build/livebench" "$@"
