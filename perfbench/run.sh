#!/usr/bin/env bash
# Builds relmaxd and the perfbench load generator from this checkout, then
# runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload solve --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache, result files and span files all stay
# under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/relmaxd" ] || [ ! -f "$root/perfbench/go.mod" ]; then
  echo "perfbench: run from the repository root (go.mod, cmd/relmaxd and perfbench/ are needed)" >&2
  exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gotmp" "$build/gomodcache" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomodcache"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -o "$build/bin/relmaxd" ./cmd/relmaxd
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -relmaxd "$build/bin/relmaxd" -out "$build/perfbench" "$@"
