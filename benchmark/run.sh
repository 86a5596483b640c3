#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Everything the build writes (binary, Go build cache, temporaries, the go
# command's own config and telemetry counters) goes under .bench_build/ at
# the root of the checkout, so a run reads and writes nothing outside the
# checkout. The benchmark imports the standard library and this repository
# only, so the module proxy is switched off.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off
(cd "$here" && go build -o "$build/mcdp-benchmark" .)
cd "$here"
exec "$build/mcdp-benchmark" "$@"
