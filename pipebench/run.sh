#!/usr/bin/env bash
# Builds pipebench from this checkout's sources and runs it with the given
# arguments. Run from the repository root:
#
#   bash pipebench/run.sh --workload conveyor --seed 1 --seconds 10 --trace 0
#
# Every build artefact, including Go's build cache, stays under .bench_build
# in the checkout. The build fails, and the script exits non-zero without a
# result, when the library sources are not next to pipebench.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd "$root/pipebench" && go build -o "$out/pipebench" .)
exec "$out/pipebench" "$@"
