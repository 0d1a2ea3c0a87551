#!/usr/bin/env bash
# Builds the perfbench binary from this checkout's sources and runs it
# with the given arguments, from the root of the checkout:
#
#   bash perfbench/run.sh --workload window-mix --seed 1 --seconds 25 --trace 0
#
# The Go build cache, the go tool's config and temp files, the binary and
# the benchmark's data all live under .bench_build/ in the checkout.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" XDG_CONFIG_HOME="$out/config"
export GOMODCACHE="$out/gomod" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -dir "$out" "$@"
