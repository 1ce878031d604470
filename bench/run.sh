#!/usr/bin/env bash
# Builds the served-path benchmark from source and runs it in the caller's
# directory. Everything it writes — the Go build cache, the binary, the
# journals the workloads create — stays under .bench_build/ at the root of the
# checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" TMPDIR="$out/tmp" GOFLAGS=-mod=mod GOTOOLCHAIN=local
go build -C "$here" -o "$out/bench" .
exec "$out/bench" "$@"
