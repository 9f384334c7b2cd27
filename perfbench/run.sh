#!/usr/bin/env bash
# Builds the benchmark driver from source and runs it with the given
# arguments, from the root of a checkout:
#
#   bash perfbench/run.sh --workload miss-heavy --seed 1 --seconds 20 --trace 0
#
# The Go build cache and every file the benchmark writes stay under
# .bench_build/ in the checkout. The build needs the rest of the
# repository (the driver's module replaces ccnuma with ../); without it
# the build fails and the script exits non-zero before printing a result.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
