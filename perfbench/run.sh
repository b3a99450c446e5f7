#!/usr/bin/env bash
# Builds stopss-server and the benchmark into .bench_build (outside any
# timed window), then runs the benchmark with the given arguments.
# Run from the root of a checkout:
#   bash perfbench/run.sh --workload jobs-fanout --seed 1 --seconds 30 --trace 0
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOTELEMETRY=off GOTOOLCHAIN=local
go build -o "$out/stopss-server" ./cmd/stopss-server >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -server "$out/stopss-server" "$@"
