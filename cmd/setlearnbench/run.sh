#!/usr/bin/env bash
# Builds setlearnbench from source into .bench_build/ under the current
# directory (the root of a checkout) and runs it with the given flags, e.g.
#
#   bash cmd/setlearnbench/run.sh --workload point --seed 1 --seconds 15 --trace 0
#
# Every Go cache the build uses lives in .bench_build/, so nothing is read or
# written outside the checkout apart from the Go toolchain itself. Build output
# goes to stderr; the last line of stdout is the benchmark's JSON result.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$(dirname "$0")" && go build -o "$out/setlearnbench" .) >&2
exec "$out/setlearnbench" "$@"
