#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's sources and runs it.
# Run from the repository root, e.g.
#
#   bash e2ebench/run.sh --workload tune-cold --seed 1 --seconds 30 --trace 0
#
# The Go build cache, the binary, scratch files and traces all live under
# .bench_build/ in the current directory, so nothing is written outside it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" \
  GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$here" && go build -o "$out/bin/e2ebench" .) >&2
exec "$out/bin/e2ebench" "$@"
