#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload scale_sparse --seed 1 --seconds 20 --trace 0
#
# The binary and the Go build cache live under .bench_build/ at the root,
# so nothing outside the checkout is read or written beyond the Go
# toolchain itself. Outside a full checkout (no ../go.mod next to this
# directory) the build fails and the script exits non-zero without
# printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
