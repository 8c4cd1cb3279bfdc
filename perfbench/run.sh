#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with
# the arguments given, e.g.
#
#   bash perfbench/run.sh --workload link-70m --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The Go build cache, temporary files
# and the binary stay under .bench_build/ (or $CARGO_TARGET_DIR when that
# names a directory inside the root), so nothing is written outside it.
set -euo pipefail

root=$(pwd)
[[ -f perfbench/go.mod && -f go.mod ]] || {
	echo "perfbench/run.sh: run from the repository root (need go.mod and perfbench/go.mod)" >&2
	exit 2
}
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/tmp" "$out/modcache"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/modcache"
export GOFLAGS=-mod=readonly GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOTELEMETRY=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
