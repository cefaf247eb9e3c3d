#!/usr/bin/env bash
# Builds the benchmark against the sources of the checkout it sits in
# and runs it from the checkout's root:
#
#   bash perfbench/run.sh --workload cohorts --seed 1 --seconds 10 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f go.mod || ! -f peerlearn.go ]]; then
	echo "perfbench: $root is not a checkout of the repository" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS=-mod=readonly
(cd perfbench && go build -o "$build/perfbench.bin" .)
exec "$build/perfbench.bin" "$@"
