#!/usr/bin/env bash
# Builds the benchmark (a Go module of its own, in this directory) and
# runs it with the arguments given:
#
#   bash bench/run.sh --workload live-batch --seed 1 --seconds 15 --trace 0
#
# Everything the build writes stays inside the checkout: the binary and
# the Go build cache go to .bench_build/ at the checkout root, so the
# first run in a fresh checkout compiles the standard library too.
# Nothing is downloaded (the module has no dependency outside this
# repository).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
# The go command's own files (module cache, environment file,
# telemetry counters) are kept inside the checkout too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -C "$here" -o "$out/dynagg-bench" .
exec "$out/dynagg-bench" "$@"
