#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it from the
# checkout root, passing every argument through:
#
#   bash perfbench/run.sh --workload fig3-quick --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the jobs-mixed data directories all
# live under .bench_build in the checkout root.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/home"

# Keep the toolchain's caches and settings inside the checkout and off the
# network: the module has no dependencies outside the repository. GOFLAGS
# is cleared so that the build runs in the default read-only module mode:
# drift in go.mod fails the build instead of rewriting the file.
export HOME="$out/home" GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOENV=off

(cd "$here" && go build -trimpath -o "$out/perfbench" .)

commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
exec "$out/perfbench" --workdir "$out" --commit "$commit" "$@"
