#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload gauss-fig5 --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. The build cache, the binary and every
# scratch file stay under .bench_build (or $CARGO_TARGET_DIR) in that root.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's telemetry and env files in $out too.
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" --scratch "$out/tmp" "$@"
