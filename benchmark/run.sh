#!/usr/bin/env bash
# Builds the benchmark harness from this checkout's sources and runs it.
#
#   bash benchmark/run.sh --workload solve-offline --seed 1 --seconds 36 --trace 0
#   bash benchmark/run.sh compare -parent runs/parent -change runs/change
#
# Every byte the build and the run write stays under .bench_build/ at the
# checkout root: the Go build cache, the binary, and the temporary
# directories the service workload puts its durable store in. The harness
# module replaces `repro` with the checkout root, so the build fails (and
# nothing is printed on stdout) when the repository sources are absent.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

# The go command stamps the git commit into the binary (the run metadata
# reports it); where git cannot describe the checkout, build without it.
go -C "$root/benchmark" build -o "$out/ogwsbench" . >&2 ||
	go -C "$root/benchmark" build -buildvcs=false -o "$out/ogwsbench" . >&2
exec "$out/ogwsbench" "$@"
