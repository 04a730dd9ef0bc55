#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload acp-slowlink --seed 1 --seconds 36 --trace 0
#
# The Go build cache and the binary stay under .bench_build/ in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home" \
	GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOTOOLCHAIN=local \
	GOPROXY=off
go -C perfbench build -o "$out/perfbench.tmp" .
mv "$out/perfbench.tmp" "$out/perfbench"
exec "$out/perfbench" "$@"
