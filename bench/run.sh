#!/usr/bin/env bash
# Builds secobench from the checkout it is run in and executes it with the
# arguments given. Everything the build writes — the Go build cache and the
# binary — stays under .bench_build/ in the checkout.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
GOCACHE="$build/gocache" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local \
	go build -o "$build/secobench" ./bench
exec "$build/secobench" "$@"
