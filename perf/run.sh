#!/usr/bin/env bash
# Builds dmcperf from the sources of the checkout it is run from and runs it
# with the given arguments, e.g.
#
#   bash perf/run.sh --workload dist-elim --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The binary and the Go build cache go to
# $CARGO_TARGET_DIR (default .bench_build), so nothing outside the checkout
# is written; module downloads and toolchain switches are disabled, since
# the benchmark needs neither.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

export GOCACHE=$out/gocache GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perf" && go build -o "$out/dmcperf" ./cmd/dmcperf)
exec "$out/dmcperf" "$@"
