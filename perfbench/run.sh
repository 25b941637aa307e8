#!/usr/bin/env bash
# Builds perfbench from this checkout and runs it with the given
# arguments, from the checkout root. Build outputs and the Go build
# cache stay under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go build -C perfbench -o "$out/perfbench-bin" .
exec "$out/perfbench-bin" "$@"
