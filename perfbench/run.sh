#!/usr/bin/env bash
# Builds the benchmark from the checkout it lives in, then runs it from
# the checkout root with every argument passed through:
#
#   bash perfbench/run.sh --workload churn_faults --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write (Go's build cache, the binary,
# traces) goes under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
