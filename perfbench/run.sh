#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ under the current
# directory (the repository root) and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload stream-audit --seed 1 --seconds 40 --trace 0
#
# Every file the Go toolchain writes (build cache, module cache, temporary
# files, telemetry) stays inside .bench_build/.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS= CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --workdir "$out" "$@"
