#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it with
# the given arguments, from the repository root:
#
#   bash perfbench/run.sh --workload fabric-pairs --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and traced runs' spans go under
# $CARGO_TARGET_DIR (default .bench_build) in the checkout, so a run reads
# and writes nothing outside it. Outside a checkout of the repository the
# build fails and the script exits non-zero without printing a result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/tmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOENV=off GOFLAGS= GOTOOLCHAIN=local CGO_ENABLED=0
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --spans-dir "$out/spans" "$@"
