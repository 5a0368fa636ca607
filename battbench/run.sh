#!/usr/bin/env bash
# Builds battschedd (with its default.pgo) and the benchmark from this
# checkout, then runs the benchmark. Arguments pass through, e.g.
#
#   bash battbench/run.sh --workload hot-fixture --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# checkout: the Go build cache included.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
(cd "$root" && go build -o "$out/battschedd" ./cmd/battschedd)
(cd "$root/battbench" && go build -o "$out/battbench" .)
exec "$out/battbench" --root "$root" "$@"
