#!/usr/bin/env bash
# Builds rpcv-coordinator and rpcv-server from this checkout and the
# perfbench driver, then runs one benchmark invocation:
#
#   bash perfbench/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
#
# Everything it writes (Go build cache, binaries, the grids' temporary
# disks) stays under .bench_build/ at the root of the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= \
	GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
go build -o "$out/bin/" ./cmd/rpcv-coordinator ./cmd/rpcv-server
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/runs" "$@"
