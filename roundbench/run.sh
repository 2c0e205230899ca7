#!/usr/bin/env bash
# Builds the round benchmark from source and runs it from the root of the
# checkout, passing every argument through (see roundbench/README.md).
# Build outputs and the Go build cache stay under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build/roundbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -C roundbench -o "$out/roundbench" .
exec "$out/roundbench" "$@"
