#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# bench/ is a module of its own (bench/go.mod replaces "repro" with the
# checkout around it), so the repository's own `go build ./...` and
# `go test ./...` never see it. Everything the build and the run write
# (Go build cache, work directories, toolchain counters, the binary,
# spill runs and WAL segments) stays under .bench_build/ in the current
# directory, which must be the repository root.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -f bench/go.mod ]; then
	echo "bench/run.sh: run from the repository root (no go.mod and bench/go.mod here)" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd bench && go build -o "$build/bench" .)
exec "$build/bench" "$@"
