#!/usr/bin/env bash
# Builds cmd/schedserver and the benchmark client from this checkout into
# .bench_build/, then runs one workload:
#
#   bash perfbench/run.sh --workload memo-hit --seed 1 --seconds 10 --trace 0
#
# Build output, the Go build cache included, stays under .bench_build/.
# Fails (non-zero, no result line) when the checkout has no module to build.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root" && go build -buildvcs=false -o "$out/schedserver" ./cmd/schedserver) >&2
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" --server "$out/schedserver" "$@"
