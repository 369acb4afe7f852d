#!/usr/bin/env bash
# Builds the benchmark and the kfserve daemon from the checkout it is run
# in, then runs the benchmark with the given arguments, e.g.
#
#   bash kfperf/run.sh --workload jacobi-fed --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the repository. Build outputs, the Go build
# cache and temporary files (including the ipc workers' socket
# directories) stay in $CARGO_TARGET_DIR, default .bench_build.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomod GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
go build -o "$out/kfserve" ./cmd/kfserve >&2
(cd kfperf && go build -o "$out/kfperf" .) >&2
exec "$out/kfperf" -out "$out" -kfserve "$out/kfserve" "$@"
