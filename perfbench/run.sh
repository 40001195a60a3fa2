#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload uniform --seed 1 --seconds 10 --trace 0
#
# Every build product and trace stays under .bench_build in the current
# directory; the Go build cache is kept there too, so the first run of a
# fresh checkout compiles the standard library (about a minute).
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

# A pid-unique name renamed into place keeps concurrent runs from
# executing a half-written binary.
bin="$out/perfbench"
(cd "$root/perfbench" && go build -o "$bin.$$" .)
mv -f "$bin.$$" "$bin"
exec "$bin" "$@"
