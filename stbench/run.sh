#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it with
# the arguments given, from the root of a checkout:
#
#   bash stbench/run.sh --workload dense --seed 1 --seconds 20 --trace 0
#
# The build cache, temporary files, per-run state directories, worker
# sockets and trace exports all stay under .bench_build/.
set -euo pipefail
root="$PWD"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOPROXY=off GOFLAGS= GOTOOLCHAIN=local GOWORK=off
(cd "$root/stbench" && go build -o "$out/stbench" .)
# A relative TMPDIR keeps the worker socket paths short (unix socket paths
# are length-limited) while keeping them inside the checkout.
TMPDIR=.bench_build/tmp exec "$out/stbench" "$@"
