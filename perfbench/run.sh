#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout's sources and runs it:
#
#	bash perfbench/run.sh --workload report --seed 1 --seconds 12 --trace 0
#
# Run from the repository root. Every build product, cache and scratch
# file stays under .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
# The benchmark needs nothing beyond the standard library and this
# repository: no module download, no toolchain switch, no user go.env.
export GOENV=off GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" "$@"
