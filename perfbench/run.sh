#!/bin/sh
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#	sh perfbench/run.sh --workload paper --seed 1 --seconds 30 --trace 0
#
# Every build artefact and cache stays under .bench_build/ in the
# checkout.
set -eu
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOWORK=off GOPROXY=off
go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
