#!/usr/bin/env bash
# Builds the suifxd end-to-end benchmark from source and runs it.
#
#   bash suifxbench/run.sh --workload analyze-cold --seed 1 --seconds 15 --trace 0
#
# Run from the repository root. Build outputs, the Go build cache and the
# trace files all stay under .bench_build/ in the current directory.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$PWD/.bench_build"
mkdir -p "$out"

export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOENV=off
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"

(cd "$here" && go build -o "$out/suifxbench" .)
exec "$out/suifxbench" -out "$out" "$@"
